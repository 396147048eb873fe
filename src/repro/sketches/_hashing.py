"""Seeded 64-bit hashing shared by the sketch implementations.

All sketches need a fast, well-mixed, *deterministic* hash function.
Python's builtin ``hash()`` is randomized per process (PYTHONHASHSEED)
and therefore unsuitable for reproducible experiments, so we use
``hashlib.blake2b`` with an explicit key derived from the seed.
"""

import hashlib
import struct

_MASK64 = (1 << 64) - 1

#: ``(seed, digest size)`` -> a keyed blake2b state that has already
#: absorbed its key block: a hash copies it instead of keying a fresh
#: state, which costs a whole compression.  Seeds come from the code
#: (sketch and simulator seeds), so the dict stays small.
_keyed_states = {}
_unpack_one = struct.Struct("<Q").unpack
_unpack_two = struct.Struct("<QQ").unpack


def _keyed_state(seed, digest_size):
    state = _keyed_states[seed, digest_size] = hashlib.blake2b(
        digest_size=digest_size, key=seed.to_bytes(8, "little"))
    return state


def hash64(key, seed=0):
    """Return a 64-bit hash of *key* for the given integer *seed*.

    *key* may be ``bytes`` or ``str``; strings are UTF-8 encoded.
    The same (key, seed) pair always produces the same value across
    processes and platforms.
    """
    if isinstance(key, str):
        key = key.encode("utf-8", "surrogateescape")
    state = (_keyed_states.get((seed, 8)) or _keyed_state(seed, 8)).copy()
    state.update(key)
    return _unpack_one(state.digest())[0]


def hash_pair(key, seed=0):
    """Return two independent 64-bit hashes of *key*.

    Used for double hashing (Kirsch & Mitzenmacher): ``h_i = h1 + i*h2``
    yields *k* near-independent hash functions from two invocations.
    """
    if isinstance(key, str):
        key = key.encode("utf-8", "surrogateescape")
    state = (_keyed_states.get((seed, 16))
             or _keyed_state(seed, 16)).copy()
    state.update(key)
    h1, h2 = _unpack_two(state.digest())
    # An even h2 could cycle through only a fraction of the buckets.
    return h1, h2 | 1


def mix64(value):
    """Finalizer-style mixer for integer values (splitmix64 finalizer)."""
    value = value & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


_GOLDEN = 0x9E3779B97F4A7C15


def derive64(base_hash, seed):
    """Derive an independent 64-bit hash from a precomputed one.

    Hot-path optimization: hashing a key once with :func:`hash64` and
    deriving per-sketch variants with this mixer avoids one blake2b
    invocation per sketch (the §2.3 feature set keeps ~8 HyperLogLogs
    per tracked object)."""
    return mix64(base_hash ^ (seed * _GOLDEN & _MASK64))
