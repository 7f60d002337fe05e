"""Unit tests for the bloom filter policy."""

import hashlib

import pytest

from repro.util.bloom import BloomFilterPolicy, _bloom_hash

# Pinned outputs of the bloom hash. Every filter in the store (and the
# Monkey/E25 false-positive figures measured on them) depends on these bits.
GOLDEN_HASHES = [
    (b"", 0x3F177186),
    (b"a", 0xC550CB8F),
    (b"ab", 0x5BB998E4),
    (b"abc", 0x6D747A10),
    (b"abcd", 0xD76FA46F),
    (b"abcde", 0x50674C98),
    (b"abcdef", 0x03DE6246),
    (b"abcdefg", 0xE2432852),
    (b"abcdefgh", 0xF5434319),
    (b"abcdefghi", 0xD99864F2),
    (b"\x00", 0x48CBA172),
    (b"\xff\xff\xff\xff\xff", 0x7C0AD448),
    (b"user0000000000", 0xE3C5191E),
    (b"user0000000001", 0xDFE8E803),
    (b"user0000000009", 0x9DF7CB7D),
    (b"user0000000010", 0xF19FA13E),
    (b"user0000012345", 0x9645E5E2),
    (b"user9999999999", 0x0E6A395A),
    (bytes(range(256)) * 2 + b"xyz", 0x31B103EE),  # longer than the prebuilt structs
]


class TestBloomHashGolden:
    @pytest.mark.parametrize(("key", "expected"), GOLDEN_HASHES)
    def test_hash_is_pinned(self, key, expected):
        assert _bloom_hash(key) == expected

    @pytest.mark.parametrize(
        ("bits_per_key", "digest"),
        [
            (10, "ba586c84997abc65527148e3df9c85af22b0dc96530536cb04140f919020a8d7"),
            (7, "a5b80a7f357912ebf194e0e2ef0a66edf35894b59f0f58ab03a65a0b37aebc41"),
        ],
    )
    def test_filter_bytes_are_pinned(self, bits_per_key, digest):
        keys = [b"user%010d" % i for i in range(1000)]
        filt = BloomFilterPolicy(bits_per_key).create_filter(keys)
        assert hashlib.sha256(filt).hexdigest() == digest


class TestBloom:
    def test_added_keys_always_match(self):
        policy = BloomFilterPolicy(bits_per_key=10)
        keys = [f"key-{i}".encode() for i in range(500)]
        filt = policy.create_filter(keys)
        assert all(policy.key_may_match(k, filt) for k in keys)

    def test_empty_filter(self):
        policy = BloomFilterPolicy()
        filt = policy.create_filter([])
        # An empty filter should reject (almost) everything.
        assert not policy.key_may_match(b"anything", filt)

    def test_false_positive_rate_reasonable(self):
        policy = BloomFilterPolicy(bits_per_key=10)
        keys = [f"present-{i}".encode() for i in range(1000)]
        filt = policy.create_filter(keys)
        absent = [f"absent-{i}".encode() for i in range(10000)]
        fp = sum(policy.key_may_match(k, filt) for k in absent)
        # 10 bits/key gives ~1% theoretical; allow generous slack.
        assert fp / len(absent) < 0.05

    def test_more_bits_fewer_false_positives(self):
        keys = [f"k{i}".encode() for i in range(2000)]
        absent = [f"a{i}".encode() for i in range(5000)]
        rates = []
        for bits in (4, 16):
            policy = BloomFilterPolicy(bits_per_key=bits)
            filt = policy.create_filter(keys)
            rates.append(sum(policy.key_may_match(k, filt) for k in absent))
        assert rates[1] < rates[0]

    def test_degenerate_filter_is_conservative(self):
        assert BloomFilterPolicy.key_may_match(b"k", b"")
        assert BloomFilterPolicy.key_may_match(b"k", b"\xff")

    def test_unknown_probe_count_is_conservative(self):
        # Last byte 31 > 30 marks a reserved encoding; must not reject.
        assert BloomFilterPolicy.key_may_match(b"k", b"\x00\x00\x1f")

    def test_duplicate_keys_fine(self):
        policy = BloomFilterPolicy()
        filt = policy.create_filter([b"dup", b"dup", b"dup"])
        assert policy.key_may_match(b"dup", filt)

    def test_probe_count_bounds(self):
        assert BloomFilterPolicy(bits_per_key=1).num_probes == 1
        assert BloomFilterPolicy(bits_per_key=100).num_probes == 30
