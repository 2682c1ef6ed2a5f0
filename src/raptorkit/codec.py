"""Bit-true raptor encoder and channel.

Covers: random regular LDPC precode construction (socket permutation with
duplicate-edge repair), systematic encoding through packed GF(2) elimination,
rateless output-symbol generation, and BPSK transmission over AWGN producing
channel LLRs.

Randomness discipline: every consumer draws from a named substream of a
counter-based generator (Philox) derived from (seed, purpose[, index]) spawn
keys, so graphs, degree draws, neighbor draws, and noise are reproducible
independently of each other and across machines.

Neighbor sets are drawn for a whole batch of output symbols at once: each
symbol takes `degree` independent uniform positions from the neighbor
substream, and a symbol whose draw repeats a position is redrawn whole, in
symbol order, as a uniform subset from its own retry substream.  A draw
without repeats is a uniform subset of its size, so each symbol's neighbor
set is exactly uniform; and because the neighbor substream yields the same
values however its draws are split, the symbol sequence does not depend on
how generation is chunked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degrees import OutputDegreeDistribution

STREAM_GRAPH = 0
STREAM_DEGREES = 1
STREAM_NEIGHBORS = 2
STREAM_NOISE = 3
STREAM_NEIGHBOR_RETRY = 4


class CodecError(ValueError):
    pass


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator on the substream named by the integer path."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path))))


def child_seed(seed: int, *path: int) -> int:
    """Derived integer seed for handing to a component with its own streams."""
    return int(np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-packed rows


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    return np.packbits(rows, axis=1, bitorder="little")


def _get_col(packed: np.ndarray, col: int) -> np.ndarray:
    return (packed[:, col >> 3] >> (col & 7)) & 1


class _Gf2Encoder:
    """Reduced row echelon form of H with pivot/free bookkeeping for
    systematic encoding."""

    def __init__(self, check_neighbors: np.ndarray, n: int):
        m = check_neighbors.shape[0]
        # packed construction directly; rows hold each variable at most once
        h = np.zeros((m, (n + 7) >> 3), dtype=np.uint8)
        rows = np.repeat(np.arange(m), check_neighbors.shape[1])
        cols = check_neighbors.ravel().astype(np.int64)
        np.bitwise_or.at(h, (rows, cols >> 3), (1 << (cols & 7)).astype(np.uint8))

        pivot_cols: list[int] = []
        r = 0
        for col in range(n):
            if r >= m:
                break
            colbits = _get_col(h, col)
            cand = np.flatnonzero(colbits[r:])
            if cand.size == 0:
                continue
            top = r + int(cand[0])
            if top != r:
                h[[r, top]] = h[[top, r]]
            flip = np.flatnonzero(_get_col(h, col))
            flip = flip[flip != r]
            if flip.size:
                h[flip] ^= h[r]
            pivot_cols.append(col)
            r += 1

        self.n = n
        self.rank = r
        self.pivot_cols = np.array(pivot_cols, dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[self.pivot_cols] = False
        self.free_cols = np.flatnonzero(mask)
        # dependence of each pivot bit on the free bits
        free_dense = np.unpackbits(h[:r], axis=1, bitorder="little", count=n)[:, self.free_cols]
        self.p = _pack_rows(free_dense)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        info = np.asarray(info_bits, dtype=np.uint8) & 1
        if info.size != self.free_cols.size:
            raise CodecError(f"info length {info.size} != {self.free_cols.size} (n - rank)")
        word = np.zeros(self.n, dtype=np.uint8)
        word[self.free_cols] = info
        packed = _pack_rows(info[None, :])[0]
        parities = np.bitwise_count(self.p & packed[None, :]).sum(axis=1) & 1
        word[self.pivot_cols] = parities.astype(np.uint8)
        return word


@dataclass
class LdpcCode:
    """Random regular LDPC code held as per-check variable index lists."""

    n: int
    d_v: int
    d_c: int
    check_neighbors: np.ndarray  # (m, d_c) int32
    seed: int
    _encoder: _Gf2Encoder | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.check_neighbors.shape[0]

    @property
    def design_rate(self) -> float:
        return 1.0 - self.d_v / self.d_c

    def _enc(self) -> _Gf2Encoder:
        if self._encoder is None:
            self._encoder = _Gf2Encoder(self.check_neighbors, self.n)
        return self._encoder

    @property
    def rank(self) -> int:
        return self._enc().rank

    @property
    def info_length(self) -> int:
        return self.n - self.rank

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        word = np.asarray(word, dtype=np.uint8)
        return np.bitwise_xor.reduce(word[self.check_neighbors], axis=1)


def _repair_duplicates(sockets: np.ndarray, m: int, d_c: int, rng: np.random.Generator) -> np.ndarray:
    """Swap socket assignments until no check row repeats a variable.

    A duplicated socket swaps with a random partner whose value is new to
    the row, so each repair strictly helps the offending row even when d_c
    is close to n.
    """
    total = sockets.size
    for _ in range(2000):
        rows = sockets.reshape(m, d_c)
        srt = np.sort(rows, axis=1)
        dup_rows = np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1))
        if dup_rows.size == 0:
            return sockets
        for ri in dup_rows:
            row = rows[ri]
            seen: set[int] = set()
            for j in range(d_c):
                v = int(row[j])
                if v in seen:
                    flat = ri * d_c + j
                    for _try in range(100):
                        partner = int(rng.integers(0, total))
                        if int(sockets[partner]) not in seen:
                            sockets[flat], sockets[partner] = sockets[partner], sockets[flat]
                            break
                    v = int(sockets[flat])
                seen.add(v)
    raise CodecError("could not remove repeated edges; check degree too close to n?")


def build_regular_ldpc(n: int, d_v: int, d_c: int, seed: int,
                       check_rank: bool = True, max_rank_retries: int = 10) -> LdpcCode:
    """Random (d_v, d_c)-regular code by edge-socket permutation.

    Repeated edges inside a check are repaired by reshuffling.  When
    check_rank is set, construction is retried with fresh substreams until
    the parity matrix has full rank (up to max_rank_retries); a final
    rank-deficient graph is kept and the reduced info length is reported by
    the encoder rather than hidden.
    """
    if n * d_v % d_c != 0:
        raise CodecError(f"n*d_v = {n * d_v} not divisible by d_c = {d_c}")
    if d_c > n:
        raise CodecError("d_c cannot exceed n (checks would repeat variables)")
    m = n * d_v // d_c

    code = None
    for attempt in range(max_rank_retries if check_rank else 1):
        rng = substream(seed, STREAM_GRAPH, attempt)
        sockets = rng.permutation(np.repeat(np.arange(n, dtype=np.int32), d_v))
        sockets = _repair_duplicates(sockets, m, d_c, rng)
        code = LdpcCode(n=n, d_v=d_v, d_c=d_c,
                        check_neighbors=sockets.reshape(m, d_c).astype(np.int32),
                        seed=seed)
        if not check_rank or code.rank == m:
            return code
    return code  # rank-deficient after retries; info_length reflects it


def ldpc_encode(code: LdpcCode, info_bits) -> np.ndarray:
    """Systematic-where-possible codeword whose syndrome is zero."""
    return code._enc().encode(np.asarray(info_bits))


# ---------------------------------------------------------------------------
# Rateless stream


@dataclass
class LtStream:
    """Growing record of generated output symbols: degree draws plus flat
    neighbor indices in CSR layout.  Generation is sequential per stream;
    the symbol sequence depends only on (seed, k, dist) and the cumulative
    count, not on how generation was chunked."""

    dist: OutputDegreeDistribution
    k: int
    seed: int
    degrees: np.ndarray = field(default=None)
    neighbors: np.ndarray = field(default=None)
    offsets: np.ndarray = field(default=None)
    _deg_rng: np.random.Generator = field(default=None, repr=False, compare=False)
    _nb_rng: np.random.Generator = field(default=None, repr=False, compare=False)
    _retry_rng: np.random.Generator = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise CodecError("k must be positive")
        if self.degrees is None:
            self.degrees = np.zeros(0, dtype=np.int32)
            self.neighbors = np.zeros(0, dtype=np.int32)
            self.offsets = np.zeros(1, dtype=np.int64)
        if self._deg_rng is None:
            self._deg_rng = substream(self.seed, STREAM_DEGREES)
            self._nb_rng = substream(self.seed, STREAM_NEIGHBORS)
            self._retry_rng = substream(self.seed, STREAM_NEIGHBOR_RETRY)

    def __len__(self) -> int:
        return len(self.degrees)

    def symbol_neighbors(self, i: int) -> np.ndarray:
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]


def lt_generate(stream: LtStream, count: int, input_bits=None):
    """Append count output symbols to the stream.

    Each symbol draws its degree from the node-view distribution and then a
    uniform set of that many distinct input positions (the module notes say
    how the sets are drawn).  When input_bits is given, returns the bit
    values (XOR over neighbors) of the new symbols.
    """
    if count < 0:
        raise CodecError("count must be nonnegative")
    if count:
        k = stream.k
        deg_values, probs = stream.dist.node_arrays()
        if deg_values.max() > k:
            raise CodecError("distribution has degrees above k")
        if count * k > np.iinfo(np.int64).max:
            raise CodecError(f"generate fewer than {count} symbols per call at k = {k}")
        degs = stream._deg_rng.choice(deg_values, size=count, p=probs).astype(np.int32)
        ends = np.cumsum(degs, dtype=np.int64)
        flat = stream._nb_rng.integers(0, k, size=int(ends[-1]))
        # symbols whose independent draws repeat a position, found by sorting
        # (symbol, position) keys; each is redrawn whole, in symbol order
        key = np.sort(np.repeat(np.arange(count, dtype=np.int64), degs) * k + flat)
        repeated = np.unique(key[1:][key[1:] == key[:-1]] // k)
        for i in repeated:
            flat[ends[i] - degs[i]:ends[i]] = stream._retry_rng.choice(k, size=int(degs[i]),
                                                                       replace=False)
        stream.degrees = np.concatenate([stream.degrees, degs])
        stream.neighbors = np.concatenate([stream.neighbors, flat.astype(np.int32)])
        stream.offsets = np.concatenate([stream.offsets, stream.offsets[-1] + ends])
    if input_bits is None:
        return None
    return encode_symbols(stream, input_bits, start=len(stream) - count)


def encode_symbols(stream: LtStream, input_bits, start: int = 0, stop: int | None = None) -> np.ndarray:
    """XOR of each symbol's neighbor bits, for symbols [start, stop)."""
    bits = np.asarray(input_bits, dtype=np.uint8) & 1
    if bits.size != stream.k:
        raise CodecError(f"input_bits length {bits.size} != k = {stream.k}")
    stop = len(stream) if stop is None else stop
    lo, hi = stream.offsets[start], stream.offsets[stop]
    seg = np.bincount(np.repeat(np.arange(stop - start), stream.degrees[start:stop]),
                      weights=bits[stream.neighbors[lo:hi]], minlength=stop - start)
    return (seg.astype(np.int64) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# Channel


@dataclass(frozen=True)
class ChannelOutput:
    llrs: np.ndarray
    sigma: float


def awgn_llr(bits, sigma: float, seed: int | None = None,
             rng: np.random.Generator | None = None) -> ChannelOutput:
    """BPSK (b -> 1-2b) over AWGN; llr = 2y/sigma^2 per received symbol."""
    if sigma <= 0.0:
        raise CodecError("sigma must be positive")
    if rng is None:
        rng = substream(0 if seed is None else seed, STREAM_NOISE)
    bits = np.asarray(bits, dtype=np.uint8) & 1
    symbols = 1.0 - 2.0 * bits
    y = symbols + sigma * rng.standard_normal(bits.size)
    return ChannelOutput(llrs=2.0 * y / (sigma * sigma), sigma=float(sigma))
