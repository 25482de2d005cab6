"""Reproducible random-number streams.

Every stochastic component of the simulator (backoff draws, traffic
arrivals, path-loss draws, node placement, bit errors, ...) pulls its
variates from a named stream so that:

* the whole experiment is reproducible from a single master seed, and
* changing the amount of randomness consumed by one component does not
  perturb the variates seen by the others (streams are independently seeded
  via ``numpy.random.SeedSequence.spawn``-style child sequences keyed by the
  stream name).

A stream costs one ``SeedSequence`` to seed, ~15 us of mostly interpreter
work.  Callers that open thousands at once (the batched MAC kernel opens
up to three per device) use :meth:`RandomStreams.primed`, which evaluates
the seed sequences of a whole batch in one vectorised pass and opens the
same streams.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import islice
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np


def _name_digest(name: str) -> bytes:
    """The 16 bytes of a stream name's SHA-256 that make its entropy."""
    return hashlib.sha256(name.encode("utf-8")).digest()[:16]


def _name_to_entropy(name: str) -> int:
    """Map a stream name to a stable 128-bit integer."""
    return int.from_bytes(_name_digest(name), "little")


# ---------------------------------------------------------------------------
# batch seeding: numpy's SeedSequence, one vectorised pass per batch
# ---------------------------------------------------------------------------

# ``numpy.random.SeedSequence``'s hash constants (``bit_generator.pyx``).
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = np.uint32(0xca01f9dd)
_MIX_MULT_R = np.uint32(0x4973f715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> List[int]:
    """``value`` as little-endian 32-bit words, like ``SeedSequence``
    coerces an integer entropy (zero is one word)."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _running_hash(initial: int, multiplier: int
                  ) -> Callable[[np.ndarray], np.ndarray]:
    """``SeedSequence``'s word hash, whose multiplier advances per call.

    Every call XORs the words with the current multiplier, advances it,
    multiplies and folds the high half down (``hashmix`` in numpy).
    """
    constant = initial

    def hash_words(words: np.ndarray) -> np.ndarray:
        nonlocal constant
        words = words ^ np.uint32(constant)
        constant = (constant * multiplier) & _MASK32
        words = words * np.uint32(constant)
        return words ^ (words >> _XSHIFT)

    return hash_words


def _seed_words(master_seeds: Sequence[int],
                names: Sequence[str]) -> np.ndarray:
    """``SeedSequence(master, spawn_key=(entropy(name),))
    .generate_state(4, np.uint64)`` of every pair, as an ``(n, 4)`` array.

    The assembled entropy of such a sequence is the master's words padded
    with zeros to the pool size (a spawn key is present), then the name's
    words.  Every pair runs the same sequence of hash constants, so the
    pool mixing runs column by column across the batch; a pair whose
    entropy is shorter than the column leaves its pool untouched.
    """
    count = len(names)
    if count == 0:
        return np.zeros((0, _POOL_SIZE), dtype=np.uint64)
    # Distinct masters and names are converted once; pairs index them.
    master_index: Dict[int, int] = {}
    pair_master = np.fromiter(
        (master_index.setdefault(master, len(master_index))
         for master in master_seeds), dtype=np.int64, count=count)
    master_words = [_uint32_words(int(master)) for master in master_index]
    width = max(_POOL_SIZE, max(map(len, master_words)))
    masters = np.array([words + [0] * (width - len(words))
                        for words in master_words], dtype=np.uint32)
    master_lengths = np.array([max(_POOL_SIZE, len(words))
                               for words in master_words])
    name_index: Dict[str, int] = {}
    pair_name = np.fromiter(
        (name_index.setdefault(name, len(name_index)) for name in names),
        dtype=np.int64, count=count)
    entropies = np.frombuffer(b"".join(map(_name_digest, name_index)),
                              dtype="<u4").reshape(-1, 4).astype(np.uint32)
    # an entropy's high zero words are dropped (zero itself is one word)
    nonzero = entropies != 0
    name_lengths = np.where(nonzero.any(axis=1),
                            4 - np.argmax(nonzero[:, ::-1], axis=1), 1)
    masters = masters[pair_master]
    entropies = entropies[pair_name]
    # Words past the pool size are mixed in afterwards: the master's
    # overflow (masters wider than 128 bits) first, then the name's words.
    overflow = master_lengths[pair_master] - _POOL_SIZE
    tail_lengths = overflow + name_lengths[pair_name]

    hashmix = _running_hash(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(masters[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    rows = np.arange(count)
    for column in range(int(tail_lengths.max())):
        from_master = column < overflow
        word = np.where(
            from_master,
            masters[rows, np.minimum(_POOL_SIZE + column,
                                     masters.shape[1] - 1)],
            entropies[rows, np.clip(column - overflow, 0,
                                    entropies.shape[1] - 1)])
        active = column < tail_lengths
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(active, mix(pool[dst], hashmix(word)),
                                 pool[dst])

    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian into four
    output_hash = _running_hash(_INIT_B, _MULT_B)
    state = np.empty((count, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[:, i] = output_hash(pool[i % _POOL_SIZE])
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands a bit generator precomputed words.

    Built on first use: ``numpy.random`` loads lazily, and importing this
    module must not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # the bit generator reads the returned buffer through a raw
            # pointer: hand it only the exact contiguous words it asked for
            if n_words != self.words.size \
                    or np.dtype(dtype) != self.words.dtype \
                    or not self.words.flags.c_contiguous:
                raise ValueError("precomputed seed words cover only "
                                 f"{self.words.size} {self.words.dtype} "
                                 "words")
            return self.words

    return SeedWords


def _bit_generator(words: np.ndarray) -> np.random.PCG64:
    return np.random.PCG64(_seed_words_type()(words))


def spawn_seeds(master_seed: Optional[int], name: str, count: int) -> "list[int]":
    """Derive ``count`` independent integer seeds from ``(master_seed, name)``.

    The seeds are children of the same named :class:`numpy.random.SeedSequence`
    that :class:`RandomStreams` uses, so a task family (e.g. the Monte-Carlo
    windows of one grid point) gets statistically independent generators that
    are reproducible from the master seed alone.  Because the result is a list
    of plain integers, task ``i`` receives ``seeds[i]`` regardless of which
    worker of the experiment engine's pool executes it, making serial and
    parallel runs bit-identical.

    Parameters
    ----------
    master_seed:
        Seed of the family (``None`` draws unpredictable children).
    name:
        Stream name; distinct names yield unrelated seed families.
    count:
        Number of child seeds to derive.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    entropy = _name_to_entropy(name)
    seed_seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(entropy,))
    return [int(child.generate_state(1, np.uint64)[0])
            for child in seed_seq.spawn(count)]


def stream_replica(master_seed: Optional[int],
                   name: str) -> np.random.Generator:
    """A fresh generator replaying the named stream from its initial state.

    Seeded exactly like ``RandomStreams(master_seed).get(name)`` but never
    cached: every call starts a new generator at variate zero.  This is how
    multi-hop forwarding replays a descendant's ``traffic[<id>]`` arrival
    process at its relay — the relay's replica produces the identical
    variate sequence while the descendant's own (cached) stream advances
    independently.
    """
    entropy = _name_to_entropy(name)
    seed_seq = np.random.SeedSequence(entropy=master_seed,
                                      spawn_key=(entropy,))
    return np.random.default_rng(seed_seq)


class RandomStreams:
    """A family of independently seeded :class:`numpy.random.Generator`.

    Parameters
    ----------
    master_seed:
        Seed of the whole family.  ``None`` draws a fresh unpredictable seed
        (only sensible for exploratory runs; experiments always pass one).

    Examples
    --------
    >>> streams = RandomStreams(1234)
    >>> backoff_rng = streams.get("csma.backoff")
    >>> traffic_rng = streams.get("traffic.jitter")
    >>> backoff_rng is streams.get("csma.backoff")
    True
    """

    def __init__(self, master_seed: Optional[int] = 0):
        self._master_seed = master_seed
        self._streams: Dict[str, np.random.Generator] = {}
        # precomputed seed words of primed names (see ``primed``)
        self._primed: Dict[str, np.ndarray] = {}

    @property
    def master_seed(self) -> Optional[int]:
        """The seed the family was created with."""
        return self._master_seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            words = self._primed.get(name)
            if words is None:
                entropy = _name_to_entropy(name)
                seed_seq = np.random.SeedSequence(
                    entropy=self._master_seed, spawn_key=(entropy,))
                self._streams[name] = np.random.default_rng(seed_seq)
            else:
                self._streams[name] = np.random.Generator(
                    _bit_generator(words))
        return self._streams[name]

    @classmethod
    def primed(cls, families: Sequence[Tuple[Optional[int], Sequence[str]]]
               ) -> Iterator["RandomStreams"]:
        """Stream families whose named streams are seeded in one pass.

        Yields one ``RandomStreams(master_seed)`` per ``(master_seed,
        names)`` pair of ``families``; each stream of ``names`` opens in
        exactly the state an unprimed family's :meth:`get` would give
        it.  The ``SeedSequence`` arithmetic of every stream of every
        family (~15 us of interpreter work per stream otherwise) runs here
        as one vectorised numpy pass; each family keeps only its names'
        seed words, which :meth:`get` and :meth:`replica` then use.
        Families are built as they are consumed, so a caller that drops
        each one after use holds one family's generators at a time.  A
        family without a master seed seeds its streams one by one.
        """
        seeded = [(master, names) for master, names in families
                  if master is not None]
        words = iter(_seed_words(
            [master for master, names in seeded for _ in names],
            [name for _, names in seeded for name in names]))

        def build() -> Iterator["RandomStreams"]:
            for master, names in families:
                streams = cls(master)
                if master is not None:
                    streams._primed = dict(zip(names,
                                               islice(words, len(names))))
                yield streams

        return build()

    def replica(self, name: str) -> np.random.Generator:
        """A fresh generator replaying stream ``name`` from variate zero.

        Equivalent to :func:`stream_replica` of this family's master seed;
        the stream's own generator (if open) does not move.
        """
        words = self._primed.get(name)
        if words is None:
            return stream_replica(self._master_seed, name)
        return np.random.Generator(_bit_generator(words))

    def spawn(self, name: str, count: int) -> Iterator[np.random.Generator]:
        """Yield ``count`` independent sub-streams of ``name``.

        Useful for giving each node of a large network its own generator.
        """
        for index in range(count):
            yield self.get(f"{name}[{index}]")

    def reset(self) -> None:
        """Forget all streams so they restart from their initial state."""
        self._streams.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"RandomStreams(master_seed={self._master_seed!r}, "
                f"streams={sorted(self._streams)})")
