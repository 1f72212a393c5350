"""Monte Carlo oracle for the sequential-visit protocol.

Each trial draws the asset quality, one signal and one uniform tie-breaker
per buyer, and a uniform visit order; the seller visits buyers in that order
until one accepts (a buyer with signal ``s`` and tie-breaker ``t`` accepts
iff ``t < sigma(s)``, so ``sigma == 0`` never accepts and ``sigma == 1``
always does).  Trials are laid out in blocks of ``BLOCK_TRIALS``, each with
its own counter-derived Philox stream, so results are bit-identical for a
given configuration regardless of how blocks are scheduled.

Per block the stream is laid out in one fixed order: the quality of every
trial, then a ``trials x n`` array each of signal uniforms, tie-breakers and
(with a focal buyer) visit-order keys.  The kernel reads only the arrays the
decisions depend on: no signal uniforms when ``sigma`` is the same for every
outcome, no tie-breakers when every ``sigma`` is 0 or 1, and nothing after
the qualities when every ``sigma`` is 0.  A skipped array still holds its
place in the stream: Philox is counter-based, so ``_seek`` jumps to any
word, back as well as forward, and every draw is the one a read of the
whole stream would reach there.  The arithmetic after the draws reads no
further random numbers, so the kernel can be rewritten without moving an
estimate: ``tests/reference_montecarlo.py`` keeps the earlier kernel, which
reads every array and sorts the visit order, on the same stream.

*Signals.*  A buyer with signal uniform ``u`` in state ``theta`` gets outcome
``min(#{j : cum_theta[j] < u}, m - 1)``, where ``cum_theta`` is the running sum
of that state's masses; the clip covers a sum that ends below 1.  The kernel
never forms the outcome.  With ``t`` the buyer's tie-breaker, it starts from
the decision ``t < sigma[m - 1]`` and walks the threshold chain
``j = m - 2, ..., 0``, replacing the decision by ``t < sigma[j]`` where
``u <= cum_theta[j]``; the last replacement is the outcome's own.  Steps with
``sigma[j] == sigma[j + 1]`` change nothing and are skipped, so a cutoff
strategy takes at most two.  For a pure strategy every step flips the
decision, and the masks ``u <= cum_theta[j]`` are nested, so the decision is
the top outcome's flipped once per mask that holds: no tie-breaker is read.

*Visit order.*  The focal buyer is reached when no buyer whose order key is
smaller than the focal buyer's accepts.  A buyer whose key equals the focal
buyer's counts as visited after it; such a tie has probability about
``(n - 1) * 2**-53`` per trial.

*Words.*  No draw is converted to a float.  numpy's ``Generator.random``
maps a raw 64-bit Philox word ``w`` to ``(w >> 11) * 2**-53``, so with
``k = w >> 11`` each float test above has an exact integer form: the kernel
reads the words through the bit generator's ``random_raw`` and compares
them with bounds that ``simulate`` computes once per call.

- quality: ``u < rho`` iff ``w < ceil(rho * 2**53) << 11``, every word at
  rho = 1;
- signal: ``u <= cum`` iff
  ``w <= (min(floor(cum * 2**53), 2**53 - 1) << 11) | 0x7FF``, which also
  covers a cumulative sum that ends an ulp above or below 1;
- tie-breaker: ``t < sigma`` iff ``w < ceil(sigma * 2**53) << 11``, no word
  at sigma = 0 and every word at sigma = 1;
- visit order: ``u_i < u_f`` iff ``w_i < (w_f & ~0x7FF)``, so words equal
  after ``>> 11`` stay a tie.

The tests check the mapping bit for bit, so a numpy that changed it fails
them before any estimate moves.

*Scheduling.*  ``simulate`` runs the blocks on ``workers`` threads: the
caller is worker 0, and worker ``w`` runs blocks ``w, w + workers, ...``.
The draws and the array arithmetic release the interpreter lock, so the
workers fill their blocks on separate cores.  Each block's counts and sums
are stored by block number; once every worker is joined, the caller adds
them in block order, so every estimate, the float surplus sums included, is
the same for any number of workers.  ``workers`` is the number of CPUs in
the caller's affinity mask, at most the number of blocks and at most
``MAX_WORKERS``; the scheduler places the threads, and no thread's mask
is changed.  The other workers are threads started once per call.  A block
that raises stops every worker before its next block, and the caller
raises the error of the lowest-numbered failing block; an interrupt in the
caller's own blocks stops them too.  No thread outlives the call.

*Memory.*  A block is decided a chunk of rows at a time: for each chunk it
seeks to that chunk's rows of the signal uniforms, then of the
tie-breakers, then of the visit-order keys, and reads the words of each it
needs, dropping one before it reads the next.  A chunk holds at most
``CHUNK_CELLS`` cells (1 MiB of words), or one row when a row is longer; a
one-chunk block seeks only past an array it skips.  The signal words
become one boolean mask per chain step, and all a chunk computes stays in
the chunk.  So a worker holds one chunk of words and its masks, 1.1 MiB
with one step at any n up to ``CHUNK_CELLS``, plus the block's arrays of
one value per trial; above that, one row of n words and a row mask per
step.  ``random_raw`` allocates each chunk of words as it is read.
``simulate`` allocates every worker's masks before the first block, so a
config whose masks cannot be allocated fails at once, and frees them
before it returns.  A strategy without chain steps has no masks: a row of
words too large to allocate fails in the first block that reads one,
once its qualities are drawn.  The per-block results take 7 floats, 56
bytes, per block: 3.5 KB for a million trials.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np
# numpy loads numpy.random only on first use (about 15 ms and 6 MB of
# OpenSSL through ``secrets``); importing it here ties that cost to this
# module, which the CLI loads for ``simulate`` alone, and keeps it out of
# the first block.
from numpy.random import Generator, Philox

from .errors import NoFocalBuyer
from .equilibrium import MarketSpec, Strategy, _check_length

BLOCK_TRIALS = 1 << 14
# The most cells of a block's ``trials x n`` arrays read at a time: 1 MiB
# of words, which stays in cache.  Markets with n <= 8 read each array in
# one chunk.
CHUNK_CELLS = 8 * BLOCK_TRIALS
# Each worker holds one chunk of words and its masks, so the cap also
# bounds ``simulate``'s memory at three of each.
MAX_WORKERS = 3
# ``Generator.random`` maps a raw Philox word ``w`` to ``(w >> 11) * 2**-53``,
# so words that differ only in their low 11 bits give the same float.
_LOW_BITS = 0x7FF
_HIGH_BITS = np.uint64(2**64 - 1 - _LOW_BITS)


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    focal_buyer: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials={self.trials} must be at least 1")
        # The block streams are keyed by 64 bits of the seed.
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed={self.seed} must lie in [0, 2**64)")


@dataclass(frozen=True)
class SimEstimate:
    """Point estimates with binomial / sample standard errors."""

    trials: int
    trade_prob_H: float
    trade_prob_H_se: float
    trade_prob_L: float
    trade_prob_L_se: float
    surplus: float
    surplus_se: float
    prob_H_given_trade: float
    prob_H_given_trade_se: float
    prob_H_given_no_trade: float
    prob_H_given_no_trade_se: float
    interim_estimate: float | None = None
    interim_se: float | None = None


def _block_rng(seed: int, block: int) -> Generator:
    return Generator(Philox(key=((block + 1) << 64) | seed))


def _binomial_se(successes: float, count: float) -> float:
    if count <= 0:
        return math.nan
    p = successes / count
    return math.sqrt(max(p * (1.0 - p), 0.0) / count)


def _affinity() -> set[int] | None:
    """The calling thread's CPU affinity mask, None where the OS has none."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _worker_count() -> int:
    """The CPUs the calling thread may run on, at most ``MAX_WORKERS``."""
    mask = _affinity()
    return min(len(mask) if mask is not None else os.cpu_count() or 1, MAX_WORKERS)


def _seek(rng: Generator, at: int, to: int) -> None:
    """Move ``rng``, which has handed out ``at`` words, so that its next
    word is word ``to`` of its stream, the one a read from the start would
    reach there.  Philox makes its words four at a time from a 256-bit
    counter: ``advance`` moves the counter to the four holding word ``to``,
    forward or, as the counter wraps, back, and drops the buffered words;
    the words before ``to`` among those four are then read."""
    if at == to:
        return
    bits = rng.bit_generator
    bits.advance((to // 4 - -(-at // 4)) % 2**256)
    if to % 4:
        bits.random_raw(to % 4, False)


def _chunk_rows(n: int) -> int:
    """The trials one chunk of a block's ``trials x n`` arrays holds, at
    least one."""
    return max(1, CHUNK_CELLS // n)


def _any_rows(mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``mask.any(axis=1, out=out)`` for a 2-d bool array, several times
    faster for a few columns: byte sums over runs of at most 255 columns,
    which a ``uint8`` sum holds without wrapping."""
    cells = mask.view(np.uint8)
    hits = np.einsum("ij->i", cells[:, :255])
    for start in range(255, mask.shape[1], 255):
        hits |= np.einsum("ij->i", cells[:, start : start + 255])
    return np.not_equal(hits, 0, out=out)


def _below(x: float) -> int:
    """The word bound of the strict test ``random() < x`` for ``x`` in
    [0, 1]: ``(w >> 11) * 2**-53 < x`` iff ``w < ceil(x * 2**53) << 11``.
    The bound is 0 (no word) at x = 0 and 2**64 (every word) at x = 1."""
    return math.ceil(x * 2.0**53) << 11


def _at_most(x: float) -> int:
    """The word bound of the test ``random() <= x`` for ``x >= 0``:
    ``(w >> 11) * 2**-53 <= x`` iff ``w <= bound``, the top 53 bits
    ``floor(x * 2**53)``, at most ``2**53 - 1``, and every low bit set."""
    return min(math.floor(x * 2.0**53), 2**53 - 1) << 11 | _LOW_BITS


def _less(words: np.ndarray, bound: int) -> np.ndarray:
    """``words < bound`` for a bound in [0, 2**64]: no ``uint64`` holds
    2**64, which lies above every word."""
    return words < np.uint64(bound) if bound < 2**64 else np.ones(words.shape, dtype=bool)


def _block_sums(
    spec: MarketSpec,
    rho_bound: int,
    signal_bounds: np.ndarray,
    tie_bounds: list[int],
    sigma: np.ndarray,
    steps: list[int],
    mixing: bool,
    focal: int | None,
    seed: int,
    trials: int,
    block: int,
    masks: np.ndarray,
) -> tuple:
    """Draw block ``block`` of ``trials`` and return its counts and sums:
    High trials, trades in each state, the surplus and its square, and
    visits of the focal buyer, all and in the High state.  The block is
    decided a chunk of rows at a time (one row per trial, one column per
    buyer): each chunk's rows of the arrays the decisions read are read as
    raw words, the others skipped, and ``masks`` holds the chunk's signal
    masks, one per chain step, of ``masks.shape[1]`` rows."""
    size = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
    rng = _block_rng(seed, block)
    raw = rng.bit_generator.random_raw
    theta_high = _less(raw(size), rho_bound)
    n_high = np.count_nonzero(theta_high)
    if not sigma.any():
        # Nobody accepts: no trade, and the focal buyer is always reached.
        return (n_high, 0, 0, 0.0, 0.0, *((size, n_high) if focal is not None else (0, 0)))

    # Indexes the columns (Low, High) of per-state values; a gather reads
    # the same values as ``np.where`` on the mask, in a fraction of the time.
    state = theta_high.view(np.uint8)
    n = spec.n
    cells = size * n
    at = size  # the next word of the stream
    # Filled chunk by chunk, unless every sigma is 1 and everybody trades.
    trade = np.empty(size, dtype=bool) if steps or mixing else np.ones(size, dtype=bool)
    visits = visits_high = 0
    for a in range(0, size, masks.shape[1]):
        b = min(a + masks.shape[1], size)
        below = masks[:, : b - a]
        # Each chunk of words is dropped once read, so that one is live.
        if steps:
            _seek(rng, at, size + a * n)
            words = raw((b - a) * n).reshape(-1, n)
            at = size + b * n
            for j, below_j in zip(steps, below):
                np.less_equal(words, signal_bounds[j].take(state[a:b])[:, None], out=below_j)
            del words
        if mixing:
            _seek(rng, at, size + cells + a * n)
            words = raw((b - a) * n).reshape(-1, n)
            at = size + cells + b * n
            # The threshold chain on accept decisions; the xor form of
            # ``where(below, t < sigma[j], decided)`` runs without branches.
            decided = _less(words, tie_bounds[-1])
            for j, below_j in zip(steps, below):
                decided ^= (_less(words, tie_bounds[j]) ^ decided) & below_j
            del words
        elif steps:
            # A pure strategy decides without tie-breakers, and each step
            # flips the decision.  The masks are nested, so a buyer's
            # decision is the top outcome's flipped once per mask that
            # holds.
            decided = below[0]
            for below_j in below[1:]:
                decided ^= below_j
            if sigma[-1]:
                np.logical_not(decided, out=decided)
        else:
            decided = None  # everybody accepts
        if decided is not None:
            _any_rows(decided, trade[a:b])
        if focal is not None:
            _seek(rng, at, size + 2 * cells + a * n)
            words = raw((b - a) * n).reshape(-1, n)
            at = size + 2 * cells + b * n
            earlier = words < (words[:, focal : focal + 1] & _HIGH_BITS)
            del words
            if decided is not None:
                earlier &= decided
            reached = ~_any_rows(earlier)
            visits += np.count_nonzero(reached)
            visits_high += np.count_nonzero(reached & theta_high[a:b])

    gain = np.array([-spec.c, 1.0 - spec.c]).take(state) * trade
    return (
        n_high,
        np.count_nonzero(trade & theta_high),
        np.count_nonzero(trade & ~theta_high),
        float(gain.sum()),
        float((gain * gain).sum()),
        visits,
        visits_high,
    )


def simulate(spec: MarketSpec, strategy: Strategy, config: SimConfig) -> SimEstimate:
    """Estimate trade probabilities, surplus, and conditional posteriors.

    With a focal buyer set, also estimates the interim belief as the fraction
    of High-quality trials among those where the focal buyer is reached
    before anyone accepts.
    """
    _check_length(spec, strategy)
    focal = config.focal_buyer
    if focal is not None and not 0 <= focal < spec.n:
        raise NoFocalBuyer(f"focal buyer {focal} outside 0..{spec.n - 1}")

    trials = config.trials
    sigma = strategy.as_array()
    steps = [j for j in range(spec.experiment.m - 2, -1, -1) if sigma[j] != sigma[j + 1]]
    mixing = bool(((0.0 < sigma) & (sigma < 1.0)).any())
    # Cumulative signal masses, one row per outcome, Low then High.
    cum = np.cumsum([spec.experiment.p_L_array(), spec.experiment.p_H_array()], axis=1).T
    run = partial(
        _block_sums,
        spec,
        _below(spec.rho),
        np.array([[_at_most(x) for x in row] for row in cum.tolist()], dtype=np.uint64),
        [_below(x) for x in sigma.tolist()],
        sigma,
        steps,
        mixing,
        focal,
        config.seed,
        trials,
    )
    blocks = -(-trials // BLOCK_TRIALS)
    workers = min(_worker_count(), blocks)

    # One mask per chain step, of a chunk's rows, allocated before the
    # first block so that masks too large to allocate fail at once.  The
    # words are allocated by ``random_raw`` in the worker that reads them.
    masks = np.empty((workers, len(steps), min(_chunk_rows(spec.n), BLOCK_TRIALS, trials), spec.n), dtype=bool)
    # One row of counts and sums per block; a count is at most
    # ``BLOCK_TRIALS``, so float64 holds it exactly.
    results = np.empty((blocks, 7))
    errors: dict[int, Exception] = {}
    failed = threading.Event()

    def work(w: int) -> None:
        for block in range(w, blocks, workers):
            if failed.is_set():
                return
            try:
                results[block] = run(block, masks[w])
            except Exception as exc:
                errors[block] = exc
                failed.set()
                return

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            threads.append(thread)
        work(0)
    except BaseException:
        failed.set()
        raise
    finally:
        for thread in threads:
            thread.join()
        del masks
    if errors:
        raise errors[min(errors)]

    totals = [0.0] * 7
    for row in results.tolist():
        totals = [total + part for total, part in zip(totals, row)]
    n_high, n_trade_high, n_trade_low, surplus_sum, surplus_sq_sum, n_visited, n_visited_high = totals
    n_low = trials - n_high
    n_trade = n_trade_high + n_trade_low
    n_no_trade = trials - n_trade
    mean_surplus = surplus_sum / trials
    var_surplus = max(surplus_sq_sum / trials - mean_surplus**2, 0.0)
    if trials > 1:
        var_surplus *= trials / (trials - 1)

    return SimEstimate(
        trials=trials,
        trade_prob_H=n_trade_high / n_high if n_high else math.nan,
        trade_prob_H_se=_binomial_se(n_trade_high, n_high),
        trade_prob_L=n_trade_low / n_low if n_low else math.nan,
        trade_prob_L_se=_binomial_se(n_trade_low, n_low),
        surplus=mean_surplus,
        surplus_se=math.sqrt(var_surplus / trials),
        prob_H_given_trade=n_trade_high / n_trade if n_trade else math.nan,
        prob_H_given_trade_se=_binomial_se(n_trade_high, n_trade),
        prob_H_given_no_trade=(n_high - n_trade_high) / n_no_trade if n_no_trade else math.nan,
        prob_H_given_no_trade_se=_binomial_se(n_high - n_trade_high, n_no_trade),
        interim_estimate=(n_visited_high / n_visited if n_visited else math.nan)
        if focal is not None
        else None,
        interim_se=_binomial_se(n_visited_high, n_visited) if focal is not None else None,
    )

