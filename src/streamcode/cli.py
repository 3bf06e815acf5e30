"""Batch experiment front-end: rate tables, streaming simulations, source
transforms, and bin-decoding sweeps.

Each subcommand reads parameters from flags or from a ``--config`` JSON
file (flags win; a JSON null counts as absent), writes CSV or JSON to
``--out`` (default stdout), and exits 0 on success, 2 when a structural
invariant breaks mid-run, and 3 on invalid input -- including
command-line usage errors and malformed config, chain or spec files.  A
config value takes the same forms as its flag: a JSON list or a
comma-separated string for a list parameter, ``true`` or ``false`` for
``periodic``, ``[start, length]`` or ``"start:length"`` for ``burst``; a
bad value from either source exits 3 with the parameter's name.
Identical configs and seeds produce byte-identical output; ``--jobs``
only changes how trials are scheduled, never what is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

from . import channel, gf2
from .errors import (
    DecodeFailure,
    InvalidInput,
    InvariantViolation,
    PatternViolation,
)
from .gaussian_stream import QUANT_GAP, gaussian_pipeline
from .markov import BinarySymmetricChain, FiniteMarkovChain
from .prospicient import decode_stream, design_bincode, encode
from .rates import RateQuery, baseline_rates, gaussian_rate, r_delay, r_minus, r_plus
from .sources import (
    DiagonalSourceSpec,
    SemiDetSpec,
    _full_rank_spec,
    gen_diagonal,
    gen_semidet,
    normalize_K,
    random_semidet_spec,
)
from .sw_binning import periodic_delay_run, streaming_sw_experiment
from .transforms import apply_map, invert_map, lb_transform, lf_transform


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, but this tool reserves 2 for
    invariant violations; route usage problems to exit code 3 instead."""

    def error(self, message):  # noqa: D102 - argparse override
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows: list[dict], fields: list[str], path: str | None) -> None:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    _write_text(buf.getvalue(), path)


# ---------------------------------------------------------- parameter kinds


class _Kind(NamedTuple):
    """How a parameter reads one value, a flag's text or a config file's
    JSON value: ``convert`` returns the typed value or raises ValueError or
    TypeError; ``flag`` holds extra ``add_argument`` options."""

    expects: str
    convert: Callable
    flag: dict = {}

    def __call__(self, name: str, value):
        try:
            return self.convert(value)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"{name}: expected {self.expects}, got {value!r}") from exc


def _check(ok: Callable, cast: Callable = lambda v: v) -> Callable:
    """A converter that rejects the values failing ``ok`` and casts the rest."""

    def convert(v):
        if not ok(v):
            raise TypeError(v)
        return cast(v)

    return convert


def _list_of(item: Callable) -> Callable:
    return lambda v: tuple(item(x) for x in (v if isinstance(v, list) else str(v).split(",")))


def _to_burst(v) -> tuple[int, int] | None:
    if v in ("", "none"):
        return None
    if isinstance(v, list):
        start, length = v
    else:
        start, _, length = str(v).partition(":")
        length = length or 1
    return _INT.convert(start), _INT.convert(length)


def _choice(*options: str) -> _Kind:
    flag = {"metavar": "{" + ",".join(options) + "}"}
    return _Kind("one of " + ", ".join(options), _check(options.__contains__), flag)


# a JSON float (even 2.0) or boolean is no integer, as "2.0" is no flag integer
_INT = _Kind("an integer", _check(lambda v: not isinstance(v, (bool, float)), int))
_SEED = _Kind("a nonnegative integer", _check(lambda v: _INT.convert(v) >= 0, int))
_COUNT = _Kind("a positive integer", _check(lambda v: _INT.convert(v) >= 1, int))
_FLOAT = _Kind("a number", _check(lambda v: not isinstance(v, bool), float))
_STR = _Kind("a string", _check(lambda v: isinstance(v, str)))
_INTS = _Kind("a comma-separated integer list", _list_of(_INT.convert))
_FLOATS = _Kind("a comma-separated number list", _list_of(_FLOAT.convert))
_STRS = _Kind("a comma-separated list", _list_of(_STR.convert))
_BURST = _Kind("start:length, none or [start, length]", _to_burst)
_FLAG = _Kind(
    "true or false",
    _check(lambda v: isinstance(v, bool)),
    {"action": "store_const", "const": True},
)

# Parameter rows are (name, kind, default[, help]).  The flag is --name
# with dashes for underscores, the config key is name, and the default is
# already typed.
_OUT = ("out", _STR, None, "output path (default stdout)")
_JOBS = ("jobs", _COUNT, 1, "worker processes (default 1)")
_CHAIN = [
    ("flip", _FLOAT, None, "binary symmetric chain flip probability"),
    ("chain", _STR, None, "JSON file with a transition matrix"),
]


def _resolve(args: argparse.Namespace, params: list[tuple]) -> argparse.Namespace:
    """Each parameter's typed value: its flag, else its config-file value
    (both read by the parameter's kind), else its default."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise InvalidInput("config file must hold a JSON object")
        unknown = set(cfg) - {name for name, *_ in params}
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
    typed = argparse.Namespace()
    for name, kind, default, *_ in params:
        given = [v for v in (getattr(args, name), cfg.get(name)) if v is not None]
        setattr(typed, name, kind(name, given[0]) if given else default)
    return typed


def _parse_sweep(text: str) -> tuple[str, list[int]]:
    """Accept 'W=0..8' (inclusive) or 'B=0,2,4'."""
    name, _, body = str(text).partition("=")
    name = name.strip()
    if name not in ("B", "W") or not body:
        raise InvalidInput("sweep must look like W=0..8 or B=0,1,2")
    try:
        if ".." in body:
            lo, _, hi = body.partition("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in body.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"bad sweep values: {text!r}") from exc
    if not values:
        raise InvalidInput(f"sweep range is empty: {text!r}")
    if any(v < 0 for v in values):
        raise InvalidInput("sweep values must be nonnegative")
    return name, values


def _load_chain(p: argparse.Namespace) -> FiniteMarkovChain:
    if p.flip is not None:
        return BinarySymmetricChain(p.flip)
    if p.chain:
        with open(p.chain) as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            return FiniteMarkovChain.from_json(obj)
        return FiniteMarkovChain(obj)
    raise InvalidInput("need --flip or --chain to define the source")


def _map_jobs(fn, payloads: list, jobs: int) -> list:
    """Run payloads in order, optionally in worker processes; results come
    back in submission order so output is independent of scheduling.  The
    pool forks all its workers at the first submit, so it gets no more
    workers than there are payloads."""
    workers = min(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


# --------------------------------------------------------------------- rates


_RATES = [
    *_CHAIN,
    ("d", _FLOATS, None, "comma-separated distortion targets (lossy source)"),
    ("B", _INT, 1),
    ("W", _INT, 0),
    ("sweep", _STR, None, "axis sweep, e.g. W=0..8"),
    _OUT,
]


def cmd_rates(p: argparse.Namespace) -> None:
    name, values = _parse_sweep(p.sweep) if p.sweep else ("W", [p.W])
    chain = _load_chain(p) if p.d is None else None
    rows = []
    for v in values:
        B, W = (v, p.W) if name == "B" else (p.B, v)
        if chain is None:
            r_si, r_wz, r_fec = baseline_rates(p.d, B, W)
            gauss = gaussian_rate(p.d, B, W)
            schemes = (("gaussian", gauss), ("wz", r_wz), ("si", r_si), ("fec", r_fec))
        else:
            q = RateQuery(B=B, W=W)
            schemes = (("r_plus", r_plus(chain, q)), ("r_minus", r_minus(chain, q)))
        rows += [{"scheme": s, "B": B, "W": W, "rate": _fmt(rate)} for s, rate in schemes]
    _write_csv(rows, ["scheme", "B", "W", "rate"], p.out)


# -------------------------------------------------------------- simulate-det


_DET = [
    ("spec", _STR, None, "JSON layered-source spec file"),
    ("widths", _INTS, (3, 2, 1), "layer widths for a seeded random spec"),
    ("spec_seed", _SEED, 0),
    ("B", _COUNT, 1),
    ("W", _INT, 1),
    ("n", _INT, 64),
    ("delta", _INT, 8),
    ("T", _COUNT, 24),
    ("trials", _COUNT, 5),
    ("seed", _SEED, 0),
    _JOBS,
    _OUT,
]


def _det_trial(payload: tuple) -> tuple[int, int]:
    """One stream: returns (decode_failures, bit_mismatches outside window)."""
    spec, p, start, blen, trial_seed = payload
    B, W, T = p.B, p.W, p.T
    trace = gen_diagonal(spec, p.n, T, seed=trial_seed)
    bincode = design_bincode(spec, B, W, p.n, delta=p.delta, seed=trial_seed)
    pattern = channel.single_burst(start, blen, T)
    stream = encode(trace, spec, B, W, bincode).with_erasures(pattern)
    tail = [trace.tail[j][-1] for j in range(len(spec.widths))]
    try:
        outs = decode_stream(stream, bincode, tail)
    except DecodeFailure:
        return 1, 0
    window = channel.recovery_window(pattern, B, W)
    bad = 0
    for t in range(T):
        if t in window:
            continue
        got = outs[t]
        if got is None:
            bad += 1
            continue
        for j in range(len(spec.widths)):
            if not np.array_equal(got[j], trace.symbol(t, j)):
                bad += 1
                break
    return 0, bad


def cmd_simulate_det(p: argparse.Namespace) -> None:
    if p.spec:
        with open(p.spec) as fh:
            spec = DiagonalSourceSpec.from_json(json.load(fh))
        # the rate formulas and the codec assume full-row-rank maps; a file
        # that breaks this is bad input, not a broken run
        try:
            spec.validate()
        except InvariantViolation as exc:
            raise InvalidInput(str(exc)) from None
    else:
        spec = _full_rank_spec(np.random.default_rng([p.spec_seed, len(p.widths)]), p.widths)
    trials = p.trials
    # the lookahead code plans one deep layer per burst slot, so the spec
    # must sit at depth exactly B+W; pad or truncate before fanning out
    spec = normalize_K(spec, p.B, p.W).spec
    configs = [
        (start, blen)
        for blen in range(1, p.B + 1)
        for start in range(0, p.T - blen + 1)
    ]
    payloads = []
    for start, blen in configs:
        for i in range(trials):
            ss = np.random.SeedSequence(entropy=p.seed, spawn_key=(start, blen, i))
            payloads.append((spec, p, start, blen, int(ss.generate_state(1)[0])))
    results = _map_jobs(_det_trial, payloads, p.jobs)
    rows = []
    idx = 0
    for start, blen in configs:
        fails = sum(results[idx + i][0] for i in range(trials))
        mism = sum(results[idx + i][1] for i in range(trials))
        idx += trials
        rows.append(
            {
                "start": start,
                "blen": blen,
                "trials": trials,
                "failures": fails,
                "mismatches": mism,
            }
        )
    _write_csv(rows, ["start", "blen", "trials", "failures", "mismatches"], p.out)


# --------------------------------------------------------- simulate-gaussian


_GAUSS = [
    ("d", _FLOATS, (0.5, 0.6, 0.70710678)),
    ("B", _INT, 1),
    ("W", _INT, 1),
    ("n", _INT, 64),
    ("T", _INT, 12),
    ("burst", _BURST, None, "start:length"),
    ("mode", _choice("ideal", "binned"), "ideal"),
    ("delta", _INT, 8),
    ("seed", _SEED, 0),
    _OUT,
]


def cmd_simulate_gaussian(p: argparse.Namespace) -> None:
    report = gaussian_pipeline(
        p.d, p.B, p.W, n=p.n, T=p.T, burst=p.burst, mode=p.mode, seed=p.seed, delta=p.delta
    )
    rows = []
    for t in sorted(report.delivered):
        for lag, target in enumerate(report.targets):
            mse = report.mse[t, lag]
            rows.append(
                {
                    "time": t,
                    "lag": lag,
                    "mse": _fmt(mse),
                    "target": _fmt(target),
                    "met": int(mse <= QUANT_GAP * target),
                }
            )
    _write_csv(rows, ["time", "lag", "mse", "target", "met"], p.out)


# ----------------------------------------------------------------- transform


_TRANSFORM = [
    ("spec", _STR, None, "JSON two-layer source spec"),
    ("random_seed", _SEED, None),
    ("symbols", _INT, 64),
    ("copies", _INT, 3),
    _OUT,
]


def cmd_transform(p: argparse.Namespace) -> None:
    if p.spec:
        with open(p.spec) as fh:
            spec = SemiDetSpec.from_json(json.load(fh))
    elif p.random_seed is not None:
        spec = random_semidet_spec(np.random.default_rng(p.random_seed))
    else:
        raise InvalidInput("need --spec or --random-seed")
    T, n = p.symbols, p.copies
    trace = gen_semidet(spec, n=n, T=T, seed=0)

    checks: dict = {"symbols": T, "copies": n}
    fmap, tri = lf_transform(spec)
    bmap, diag = lb_transform(tri)
    if tri.K == 1 and bmap.drop is None:
        # A has full row rank: the forward map is the identity, and the
        # backward map folds X s_d into the innovation, where X, the
        # solution of A X = B, is its top-right N0 x Nd block
        route = "one-shot"
        maps = [bmap]
        x = gf2.BitMatrix.from_bits(bmap.matrix.to_bits()[: spec.N0, spec.N0 :])
        checks["coupling_solved"] = bool((spec.A @ x) == spec.B)
    else:
        route = "peel-cancel"
        maps = [fmap, bmap]
    moved = trace
    for m in maps:
        moved = apply_map(m, moved)
    back = moved
    for m in reversed(maps):
        back = invert_map(m, back)
    checks["derived_valid"] = True  # lb_transform ranked the blocks its derived maps equal
    same = all(
        np.array_equal(back.sub[j], trace.sub[j]) and np.array_equal(back.tail[j], trace.tail[j])
        for j in range(len(trace.widths))
    )
    checks["roundtrip_exact"] = bool(same)
    artifact = {
        "input": spec.to_json(),
        "route": route,
        "maps": [m.to_json() for m in maps],
        "derived": diag.to_json(),
        "checks": checks,
    }
    _write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n", p.out)
    if not same:
        raise InvariantViolation("transform roundtrip failed to restore the trace")


# -------------------------------------------------------------------- oracle


_ORACLE = [
    *_CHAIN,
    ("B", _INT, 1),
    ("W", _INT, 0),
    ("T", _INT, 1),
    ("rate", _FLOAT, None),
    ("n", _INT, 12),
    ("trials", _COUNT, 200),
    ("seed", _SEED, 0),
    ("modes", _STRS, ("steady", "post_burst", "delayed")),
    ("horizon", _INT, None),
    ("periodic", _FLAG, False),
    _OUT,
]


def cmd_oracle(p: argparse.Namespace) -> None:
    chain = _load_chain(p)
    rate = p.rate if p.rate is not None else r_plus(chain, RateQuery(B=p.B, W=p.W))
    if p.periodic:
        horizon = p.horizon if p.horizon is not None else 3 * (p.B + p.T + 1)
        states = periodic_delay_run(chain, p.B, p.T, rate, p.n, horizon, p.seed)
        rows = [{"time": t, "status": s[0]} for t, s in enumerate(states)]
        _write_csv(rows, ["time", "status"], p.out)
        return
    stats = streaming_sw_experiment(
        chain, p.B, p.W, p.T, rate, p.n, p.trials, p.seed, horizon=p.horizon, modes=p.modes
    )
    rows = [
        {
            "mode": mode,
            "rate": _fmt(rate),
            "n": p.n,
            "trials": p.trials,
            "decodes": stats[mode].decodes,
            "errors": stats[mode].errors,
            "ties": stats[mode].ties,
            "error_rate": _fmt(stats[mode].error_rate),
        }
        for mode in p.modes
    ]
    _write_csv(
        rows,
        ["mode", "rate", "n", "trials", "decodes", "errors", "ties", "error_rate"],
        p.out,
    )


# --------------------------------------------------------------------- sweep


_SWEEP = [
    *_CHAIN,
    ("B", _INT, 1),
    ("W", _INT, 0),
    ("T", _INT, 1),
    ("n", _INT, 12),
    ("trials", _COUNT, 400),
    ("seed", _SEED, 0),
    ("modes", _STRS, ("steady", "post_burst")),
    ("rates", _FLOATS, None, "explicit rate list"),
    ("offsets", _FLOATS, (-0.1, 0.0, 0.15), "offsets from the threshold rate"),
    ("threshold", _choice("plus", "delay"), "plus"),
    ("horizon", _INT, None),
    _JOBS,
    _OUT,
]


def _sweep_point(payload: tuple) -> list[dict]:
    P, p, rate = payload
    stats = streaming_sw_experiment(
        FiniteMarkovChain(P), p.B, p.W, p.T, rate, p.n, p.trials, p.seed,
        horizon=p.horizon, modes=p.modes,
    )
    return [
        {
            "rate": _fmt(rate),
            "mode": mode,
            "trials": p.trials,
            "decodes": stats[mode].decodes,
            "errors": stats[mode].errors,
            "error_rate": _fmt(stats[mode].error_rate),
        }
        for mode in p.modes
    ]


def cmd_sweep(p: argparse.Namespace) -> None:
    chain = _load_chain(p)
    if p.rates is not None:
        points = sorted(p.rates)
    else:
        if p.threshold == "delay":
            thr = r_delay(chain, p.B, p.T)
        else:
            thr = r_plus(chain, RateQuery(B=p.B, W=p.W))
        points = sorted(thr + o for o in p.offsets)
    p_mat = chain.P.tolist()
    chunks = _map_jobs(_sweep_point, [(p_mat, p, rate) for rate in points], p.jobs)
    rows = [row for chunk in chunks for row in chunk]
    _write_csv(
        rows, ["rate", "mode", "trials", "decodes", "errors", "error_rate"], p.out
    )


# ---------------------------------------------------------------- the parser


_COMMANDS = {
    "rates": (cmd_rates, "closed-form rate tables as CSV", _RATES),
    "simulate-det": (cmd_simulate_det, "layered-source streaming over bursts", _DET),
    "simulate-gaussian": (cmd_simulate_gaussian, "lossy streaming pipeline report", _GAUSS),
    "transform": (cmd_transform, "reduce a two-layer source to layered form", _TRANSFORM),
    "oracle": (cmd_oracle, "small-block bin decoding experiment", _ORACLE),
    "sweep": (cmd_sweep, "bin-decoding error rates across rates", _SWEEP),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamcode", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, params) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for name, kind, _, *doc in params:
            sp.add_argument(
                "--" + name.replace("_", "-"), help=doc[0] if doc else None, **kind.flag
            )
        sp.add_argument("--config", help="JSON file of parameters; flags override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _, params = _COMMANDS[args.command]
    try:
        func(_resolve(args, params))
    # PatternViolation subclasses InvalidInput, so the exit-2 group must
    # be tried first: a broken erasure pattern is a structural failure of
    # the run, not a usage error.
    except (InvariantViolation, PatternViolation, DecodeFailure) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    # a file that is not JSON (config, chain or spec) is bad input too
    except (InvalidInput, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
