"""The benchmark's workloads, run one at a time in a process of their own.

``run.py`` starts this script with the library's ``src`` directory on
``PYTHONPATH`` and one BLAS/OpenMP thread.  The script times one workload as
a closed loop (one caller, one thread, the next operation starts when the
previous one has returned), checks every output, and prints its result as
one JSON line.  Only the library's public API is called.

Every workload follows the same shape:

* ``setup`` builds what the first timed operation needs; it is repeated
  ``setup_reps`` times and the median is reported.
* ``unit(ctx, i)`` runs operation ``i``, times its own work, and checks its
  outputs outside that time.  Operation inputs are derived from the
  workload seed and ``i`` alone, so the same seed gives the same inputs.
* ``finish`` applies the gates that need every operation at once.

The timed phase runs operations until ``--seconds`` have passed.  Throughput
and median latency are taken per window of ``window_steps`` consecutive
steps (about half a second of work), and the best window is reported, as
``timeit`` does with its repeats: the cores of a shared machine are slowed
for seconds at a time by other tenants, and a slower window measures them,
not the code.  The p99 latency is taken per window of ``tail_steps`` steps
(at least 1000 latency samples where the workload has them), and the median
window is reported: each window's p99 is already an extreme value, and the
best of many extremes varies too much from run to run.  The result digest
covers the first ``min_units`` operations, which every run makes whatever
``--seconds`` is, so it repeats across runs of one seed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import streamcode  # noqa: E402
from streamcode import channel, gf2, prospicient, sources  # noqa: E402
from streamcode import gaussian_stream, rates, sw_binning  # noqa: E402
from streamcode.errors import DecodeFailure, InvariantViolation  # noqa: E402
from streamcode.gaussian_stream import QUANT_GAP  # noqa: E402
from streamcode.markov import BinarySymmetricChain  # noqa: E402

import tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Unit:
    """One timed operation: its work counts, timings and check outcome."""

    steps: int
    decodes: int
    elapsed: float
    lat_ms: list  # one decode_step latency per step, or empty
    failed: bool = False
    error: str | None = None  # a correctness error; aborts the run
    digest: bytes = b""
    stats: dict = field(default_factory=dict)


# -- layered GF(2) streams ----------------------------------------------------

# the (3, 2, 1) source of the streaming acceptance gate, depth K = B + W = 2
DEEP_SPEC = sources.DiagonalSourceSpec(
    widths=(3, 2, 1),
    R=(
        gf2.BitMatrix.from_bits(np.array([[1, 0, 1], [0, 1, 1]], np.uint8)),
        gf2.BitMatrix.from_bits(np.array([[1, 1]], np.uint8)),
    ),
)
B, W = 1, 1
# Slack bits per packet.  At the acceptance gate's delta=8, 1 of about 6900
# stacked deadline solves measured at n=48 was rank deficient.  A seed whose
# shared code has such a solver fails every stream that bursts at that
# position: 1/32 of stream-warm, over its 1% budget.  Each extra slack bit
# halves the odds.
STREAM_DELTA = 16


def _decode(stream, code, trace, lat_ms):
    """Drive decode_step over a stream, timing each call."""
    state = prospicient.DecoderState.initial(
        [trace.tail[j][-1] for j in range(len(trace.widths))]
    )
    out = []
    clock = time.perf_counter
    for pkt in stream.packets:
        t0 = clock()
        state, layers = prospicient.decode_step(state, pkt, stream.spec, B, W, code)
        lat_ms.append(1e3 * (clock() - t0))
        out.append(layers)
    return out


def _check_stream(out, trace, window, h) -> str | None:
    """Times outside the recovery window must be bit-exact, window times
    skip markers (the streaming acceptance gate's rule).  Feeds the
    decoded symbols into the digest ``h``."""
    for t in range(trace.T):
        if t in window:
            if out[t] is not None:
                return f"time {t} inside the window is not a skip marker"
            h.update(b"-")
            continue
        if out[t] is None:
            return f"time {t} outside the window is missing"
        for j in range(len(trace.widths)):
            if not np.array_equal(out[t][j], trace.sub[j][t]):
                return f"time {t} layer {j} differs from the source"
            h.update(np.ascontiguousarray(out[t][j]).tobytes())
    return None


def _windows(starts, T):
    window = set()
    for j in starts:
        window.update(range(j, min(j + 1 + W, T)))
    return window


def _stream_unit(code, trace, starts):
    """Encode, erase and decode one stream; only that work is timed.
    Returns the decoded symbols (None on DecodeFailure), the time taken
    and the latency of each decode_step call."""
    t0 = time.perf_counter()
    stream = prospicient.encode(trace, DEEP_SPEC, B, W, code)
    pattern = channel.multi_burst([(j, 1) for j in starts], 1 + W, trace.T)
    stream = stream.with_erasures(pattern)
    lat: list[float] = []
    try:
        out = _decode(stream, code, trace, lat)
    except DecodeFailure:
        out = None
    return out, time.perf_counter() - t0, lat


@dataclass(frozen=True)
class StreamWarm:
    """Warm streams on one shared code: every solver is already built."""

    n: int = 128
    T: int = 32
    delta: int = STREAM_DELTA
    setup_reps: int = 3
    min_units: int = 32  # one burst at every position
    window_steps: int = 1024
    tail_steps: int = 2048
    trace_units: int = 64
    fail_budget: float = 0.01  # the streaming acceptance gate's budget

    def setup(self, seed: int):
        code = prospicient.design_bincode(DEEP_SPEC, B, W, self.n, delta=self.delta, seed=seed)
        trace = sources.gen_diagonal(DEEP_SPEC, self.n, self.T, seed=derive(seed, 0))
        # one burst at every position builds every steady and window solver
        for j in range(self.T):
            out, _, _ = _stream_unit(code, trace, [j])
            if out is not None:
                err = _check_stream(out, trace, _windows([j], self.T), hashlib.sha256())
                if err:
                    raise InvariantViolation(f"cache-filling pass: {err}")
        return {"seed": seed, "code": code}

    def unit(self, ctx, i: int) -> Unit:
        j = i % self.T
        t0 = time.perf_counter()
        trace = sources.gen_diagonal(DEEP_SPEC, self.n, self.T, seed=derive(ctx["seed"], 1, i))
        gen_s = time.perf_counter() - t0
        out, elapsed, lat = _stream_unit(ctx["code"], trace, [j])
        h = hashlib.sha256(f"{i}:{j}:{out is None}".encode())
        err = None if out is None else _check_stream(out, trace, _windows([j], self.T), h)
        return Unit(len(lat), len(lat), gen_s + elapsed, lat, out is None, err, h.digest())

    def finish(self, units) -> str | None:
        failed = sum(u.failed for u in units)
        if failed > self.fail_budget * len(units):
            return f"{failed} of {len(units)} streams failed to decode"
        return None


@dataclass(frozen=True)
class StreamLong:
    """One long stream per fresh code: every time index is new."""

    n: int = 48
    T: int = 1024  # p99 of one stream has 10 samples beyond it
    period: int = 16  # one single-packet burst every `period` steps
    delta: int = STREAM_DELTA
    setup_reps: int = 5
    min_units: int = 1
    window_steps: int = 128
    tail_steps: int = 1024
    trace_units: int = 1

    def setup(self, seed: int):
        return {"seed": seed}

    def unit(self, ctx, i: int) -> Unit:
        seed = ctx["seed"]
        first = derive(seed, 2, i) % self.period
        starts = list(range(first, self.T - 1 - W, self.period))
        t0 = time.perf_counter()
        code = prospicient.design_bincode(
            DEEP_SPEC, B, W, self.n, delta=self.delta, seed=derive(seed, 3, i)
        )
        trace = sources.gen_diagonal(DEEP_SPEC, self.n, self.T, seed=derive(seed, 4, i))
        gen_s = time.perf_counter() - t0
        out, elapsed, lat = _stream_unit(code, trace, starts)
        h = hashlib.sha256(f"{i}:{first}:{out is None}".encode())
        err = None if out is None else _check_stream(out, trace, _windows(starts, self.T), h)
        return Unit(len(lat), len(lat), gen_s + elapsed, lat, out is None, err, h.digest())

    def finish(self, units) -> str | None:
        return None


# -- binned Gaussian pipeline -------------------------------------------------


@dataclass(frozen=True)
class GaussBinned:
    """Quantize, rearrange, hash and decode Gaussian blocks end to end."""

    d: tuple = (0.5, 0.6, 0.70710678)
    n: int = 128
    T: int = 8
    burst: tuple = (3, 1)
    setup_reps: int = 5
    min_units: int = 2
    window_steps: int = 16  # two pipelines
    tail_steps: int = 16  # one latency sample per pipeline: p99 is the slower
    trace_units: int = 2

    def setup(self, seed: int):
        # the closed-form rate the pipeline's accounting must match
        return {"seed": seed, "closed": rates.gaussian_rate(self.d, B, W)}

    def unit(self, ctx, i: int) -> Unit:
        start, length = self.burst
        window = set(range(start, min(start + length + W, self.T)))
        t0 = time.perf_counter()
        try:
            rep = gaussian_stream.gaussian_pipeline(
                self.d, B, W, n=self.n, T=self.T, burst=self.burst,
                mode="binned", seed=derive(ctx["seed"], 5, i),
            )
        except DecodeFailure:
            elapsed = time.perf_counter() - t0
            return Unit(self.T, self.T, elapsed, [], failed=True, digest=f"{i}:failed".encode())
        except InvariantViolation as exc:
            return Unit(0, 0, time.perf_counter() - t0, [], error=f"pipeline {i}: {exc}")
        elapsed = time.perf_counter() - t0
        err = None
        if set(rep.skipped) != window or set(rep.delivered) != set(range(self.T)) - window:
            err = f"pipeline {i}: delivered set is not the complement of the window"
        elif abs(rep.rate["closed_form"] - ctx["closed"]) > 1e-12:
            err = f"pipeline {i}: closed-form rate changed"
        h = hashlib.sha256(f"{i}:{rep.skipped}:{sorted(rep.delivered)}".encode())
        h.update(np.ascontiguousarray(rep.mse).tobytes())
        h.update(json.dumps(rep.rate, sort_keys=True).encode())
        served = np.isfinite(rep.mse)
        stats = {"mse_sum": np.where(served, rep.mse, 0.0).sum(axis=0),
                 "served": served.sum(axis=0), "budget": QUANT_GAP * np.array(rep.targets)}
        return Unit(self.T, self.T, elapsed, [], False, err, h.digest(), stats)

    def finish(self, units) -> str | None:
        """``all_met`` over the pooled blocks of every pipeline: one pipeline
        holds too few samples per lag to test the budget on its own."""
        done = [u.stats for u in units if u.stats]
        if not done:
            return None
        lag_mse = sum(s["mse_sum"] for s in done) / sum(s["served"] for s in done)
        if not np.all(lag_mse <= done[0]["budget"]):
            return f"per-lag distortion {lag_mse} over budget {done[0]['budget']}"
        return None


# -- Slepian-Wolf binning sweep -----------------------------------------------


@dataclass(frozen=True)
class SwSweep:
    """ML bin decoding across the threshold; touches no GF(2) code."""

    p: float = 0.25
    n: int = 12
    offsets: tuple = (-0.1, 0.0, 0.15)
    trials: int = 5  # one call sweeps the burst over every position once
    setup_reps: int = 5
    min_units: int = 120  # enough trials for the threshold gate
    window_steps: int = 1950  # 60 calls, ten per rate offset and mode
    tail_steps: int = 32500  # 1000 calls, one latency sample each
    trace_units: int = 120

    def setup(self, seed: int):
        chain = BinarySymmetricChain(self.p)
        thr = rates.r_plus(chain, rates.RateQuery(B=1, W=0))
        thr_d = rates.r_delay(chain, 1, 1)
        combos = [("post_burst", dict(W=0, T=0, modes=("steady", "post_burst")), thr + o, o)
                  for o in self.offsets]
        combos += [("delayed", dict(W=0, T=1, modes=("delayed",)), thr_d + o, o)
                   for o in self.offsets]
        return {"seed": seed, "chain": chain, "combos": combos}

    def unit(self, ctx, i: int) -> Unit:
        family, kw, rate, off = ctx["combos"][i % len(ctx["combos"])]
        horizon = 1 + max(kw["W"], kw["T"]) + 5  # the experiment's default
        t0 = time.perf_counter()
        stats = sw_binning.streaming_sw_experiment(
            ctx["chain"], B=1, rate_bits=rate, n=self.n, trials=self.trials,
            seed=derive(ctx["seed"], 6, i), **kw,
        )
        elapsed = time.perf_counter() - t0
        steps = self.trials * horizon
        decodes = sum(s.decodes for s in stats.values())
        tally = {m: (s.decodes, s.errors, s.ties) for m, s in sorted(stats.items())}
        h = hashlib.sha256(f"{i}:{family}:{off}:{tally}".encode())
        return Unit(steps, decodes, elapsed, [], digest=h.digest(),
                    stats={"key": (family, off), "tally": tally})

    def finish(self, units) -> str | None:
        errs: dict = {}
        for u in units:
            family, off = u.stats["key"]
            dec, err, _ = u.stats["tally"][family]
            got = errs.setdefault(family, {}).setdefault(off, [0, 0])
            got[0] += dec
            got[1] += err
        for family, by_off in errs.items():
            curve = [by_off[o][1] / by_off[o][0] for o in self.offsets if o in by_off]
            if len(curve) < len(self.offsets):
                return f"{family}: not every rate offset ran"
            if any(a <= b for a, b in zip(curve, curve[1:])):
                return f"{family}: error rate does not fall across the threshold {curve}"
            if curve[-1] >= 0.10:
                return f"{family}: error rate above the threshold is {curve[-1]}"
        return None


WORKLOADS = {
    "stream-warm": StreamWarm(),
    "stream-long": StreamLong(),
    "gauss-binned": GaussBinned(),
    "sw-sweep": SwSweep(),
}


# -- runner ----------------------------------------------------------------------

IMPORT_PROBES = 4  # fresh interpreters that time the import again


def _digest(units) -> str:
    h = hashlib.sha256()
    for u in units:
        h.update(u.digest)
    return h.hexdigest()


def _rates(units) -> tuple[float, float]:
    busy = sum(u.elapsed for u in units)
    return sum(u.steps for u in units) / busy, sum(u.decodes for u in units) / busy


def _loop(wl, ctx, count: int | None, seconds: float):
    """Closed loop: at least ``min_units`` operations, then more until
    ``seconds`` have passed (or exactly ``count`` operations)."""
    units: list[Unit] = []
    end = time.perf_counter() + seconds
    while True:
        done = len(units)
        if count is not None and done >= count:
            break
        if count is None and done >= wl.min_units and time.perf_counter() >= end:
            break
        units.append(wl.unit(ctx, done))
        if units[-1].error:
            break
    return units


def _per_step(units):
    """Per-step cost, latency and decodes, in run order.

    A step's cost is its decode_step latency plus an even share of the rest
    of its operation's time (source generation, encoding).  Where the public
    API runs a whole operation in one call, each of its steps gets the
    operation's time shared over its steps as cost and latency."""
    cost, lat, dec = [], [], []
    for u in units:
        if u.steps == 0:
            continue
        ms = np.asarray(u.lat_ms, float) if u.lat_ms else np.full(u.steps, 1e3 * u.elapsed / u.steps)
        cost.append(ms + (1e3 * u.elapsed - ms.sum()) / u.steps)
        lat.append(ms)
        dec.append(np.full(u.steps, u.decodes / u.steps))
    return np.concatenate(cost), np.concatenate(lat), np.concatenate(dec)


def _import_s() -> float:
    """Median import time over this process and a few fresh interpreters."""
    paths = [os.path.dirname(os.path.abspath(__file__)),
             os.path.dirname(os.path.dirname(os.path.abspath(streamcode.__file__)))]
    code = f"import sys; sys.path[:0] = {paths!r}; import workloads; print(workloads.IMPORT_S)"
    runs = [IMPORT_S]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, timeout=60).stdout
        runs.append(float(out.split()[-1]))
    return statistics.median(runs)


def run_untraced(wl, seed: int, seconds: float) -> dict:
    tracer.assert_clean(sys.modules)
    import_s = _import_s()
    setup_s = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        ctx = wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    units = _loop(wl, ctx, None, seconds)
    cost, lat, dec = _per_step(units)

    def windows(size):
        size = min(size, len(cost))  # a correctness error may stop the run early
        return [slice(i, i + size) for i in range(0, len(cost) - size + 1, size)]

    short, tail = windows(wl.window_steps), windows(wl.tail_steps)
    win_steps = [(w.stop - w.start) / (1e-3 * cost[w].sum()) for w in short]
    win_decodes = [dec[w].sum() / (1e-3 * cost[w].sum()) for w in short]
    win_p50 = [float(np.median(lat[w])) for w in short]
    win_p99 = [float(np.percentile(lat[w], 99)) for w in tail]
    metrics = {
        "setup_s": (import_s + statistics.median(setup_s), "s"),
        "steps_per_s": (max(win_steps), "1/s"),
        "decodes_per_s": (max(win_decodes), "1/s"),
        "step_ms_p50": (min(win_p50), "ms"),
        "step_ms_p99": (statistics.median(win_p99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    best = f"best of {len(short)} windows of {short[0].stop} steps"
    samples = {
        "setup_s": f"{1 + IMPORT_PROBES} imports, {len(setup_s)} set-ups",
        "steps_per_s": best,
        "decodes_per_s": best,
        "step_ms_p50": best,
        "step_ms_p99": f"median of {len(tail)} windows of {tail[0].stop} steps",
        "peak_rss_mb": "1 process",
    }
    extra = {
        "import_s": import_s,
        "setup_runs_s": setup_s,
        "windows": {"steps_per_s": win_steps, "decodes_per_s": win_decodes,
                    "step_ms_p50": win_p50, "step_ms_p99": win_p99},
    }
    return _result(wl, units, metrics, samples, extra)


def run_traced(wl, seed: int, spans_path: str | None) -> dict:
    """Same fixed work untraced, then traced (set-up included); the
    per-layer metrics come from the traced half only."""
    ctx = wl.setup(seed)
    plain = _loop(wl, ctx, wl.trace_units, 0)
    tr = tracer.Tracer(sys.modules)
    tr.install()
    try:
        ctx = wl.setup(seed)
        units = _loop(wl, ctx, wl.trace_units, 0)
    finally:
        tr.uninstall()
    tracer.assert_clean(sys.modules)
    metrics = tracer.layer_metrics(tr.spans)
    (s0, d0), (s1, d1) = _rates(plain), _rates(units)
    metrics["trace.overhead.steps_per_s"] = (s1 - s0, "1/s")
    metrics["trace.overhead.decodes_per_s"] = (d1 - d0, "1/s")
    if spans_path:
        tr.dump(spans_path)
    plain_error = next((u.error for u in plain if u.error), None)
    if plain_error or _digest(plain) != _digest(units):
        units[-1].error = plain_error or "traced results differ from untraced results"
    samples = {k: f"{len(units)} operations, {len(tr.spans)} spans" for k in metrics}
    return _result(wl, units, metrics, samples, {})


def _result(wl, units, metrics, samples, extra) -> dict:
    error = next((u.error for u in units if u.error), None) or wl.finish(units)
    return {
        "correct": error is None,
        "error": error,
        "attempted": len(units),
        "failed": sum(u.failed for u in units),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        # the operations every run makes, traced or not, whatever --seconds is
        "digest": _digest(units[: wl.min_units]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.trace:
        res = run_traced(wl, args.seed, args.spans)
    else:
        res = run_untraced(wl, args.seed, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
