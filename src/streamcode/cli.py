"""Batch experiment front-end: rate tables, streaming simulations, source
transforms, and bin-decoding sweeps.

Each subcommand reads parameters from flags or from a ``--config`` JSON
file (flags win), writes CSV or JSON to ``--out`` (default stdout), and
exits 0 on success, 2 when a structural invariant breaks mid-run, and 3
on invalid input -- including command-line usage errors.  Identical
configs and seeds produce byte-identical output; ``--jobs`` only changes
how trials are scheduled, never what is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor

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
from .transforms import apply_map, case1_transform, invert_map, lb_transform, lf_transform


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


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve each parameter: explicit flag, then config file, then default."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise InvalidInput("config file must hold a JSON object")
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else cfg.get(key, fallback)
    return out


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in str(text).split(","))
    except ValueError as exc:
        raise InvalidInput(f"expected a comma-separated integer list: {text!r}") from exc


def _floats(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(x) for x in text)
    try:
        return tuple(float(x) for x in str(text).split(","))
    except ValueError as exc:
        raise InvalidInput(f"expected a comma-separated number list: {text!r}") from exc


def _parse_sweep(text: str) -> tuple[str, list[int]]:
    """Accept 'W=0..8' (inclusive) or 'B=0,2,4'."""
    name, _, body = str(text).partition("=")
    name = name.strip()
    if name not in ("B", "W") or not body:
        raise InvalidInput("sweep must look like W=0..8 or B=0,1,2")
    if ".." in body:
        lo, _, hi = body.partition("..")
        try:
            values = list(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise InvalidInput(f"bad sweep range: {text!r}") from exc
    else:
        values = list(_ints(body))
    if not values or any(v < 0 for v in values):
        raise InvalidInput("sweep values must be nonnegative")
    return name, values


def _parse_burst(text) -> tuple[int, int] | None:
    if text in (None, "", "none"):
        return None
    start, _, length = str(text).partition(":")
    try:
        return int(start), int(length) if length else 1
    except ValueError as exc:
        raise InvalidInput(f"burst must look like start:length, got {text!r}") from exc


def _load_chain(params: dict) -> FiniteMarkovChain:
    if params.get("flip") is not None:
        return BinarySymmetricChain(float(params["flip"]))
    if params.get("chain"):
        with open(params["chain"]) as fh:
            obj = json.load(fh)
        return FiniteMarkovChain(obj["P"] if isinstance(obj, dict) else obj)
    raise InvalidInput("need --flip or --chain to define the source")


def _map_jobs(fn, payloads: list, jobs: int) -> list:
    """Run payloads in order, optionally in worker processes; results come
    back in submission order so output is independent of scheduling."""
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


# --------------------------------------------------------------------- rates


_RATES_DEFAULTS = {
    "flip": None,
    "chain": None,
    "d": None,
    "B": 1,
    "W": 0,
    "sweep": None,
    "out": None,
}


def cmd_rates(args: argparse.Namespace) -> None:
    p = _merge_config(args, _RATES_DEFAULTS)
    name, values = _parse_sweep(p["sweep"]) if p["sweep"] else ("W", [int(p["W"])])
    rows = []
    if p["d"] is not None:
        d = _floats(p["d"])
        for v in values:
            B, W = (v, int(p["W"])) if name == "B" else (int(p["B"]), v)
            r_si, r_wz, r_fec = baseline_rates(d, B, W)
            for scheme, rate in (
                ("gaussian", gaussian_rate(d, B, W)),
                ("wz", r_wz),
                ("si", r_si),
                ("fec", r_fec),
            ):
                rows.append({"scheme": scheme, "B": B, "W": W, "rate": _fmt(rate)})
    else:
        chain = _load_chain(p)
        for v in values:
            B, W = (v, int(p["W"])) if name == "B" else (int(p["B"]), v)
            q = RateQuery(B=B, W=W)
            for scheme, rate in (("r_plus", r_plus(chain, q)), ("r_minus", r_minus(chain, q))):
                rows.append({"scheme": scheme, "B": B, "W": W, "rate": _fmt(rate)})
    _write_csv(rows, ["scheme", "B", "W", "rate"], p["out"])


# -------------------------------------------------------------- simulate-det


_DET_DEFAULTS = {
    "spec": None,
    "widths": "3,2,1",
    "spec_seed": 0,
    "B": 1,
    "W": 1,
    "n": 64,
    "delta": 8,
    "T": 24,
    "trials": 5,
    "seed": 0,
    "jobs": 1,
    "out": None,
}


def _det_trial(payload: tuple) -> tuple[int, int]:
    """One stream: returns (decode_failures, bit_mismatches outside window)."""
    spec_json, B, W, n, delta, T, start, blen, trial_seed = payload
    spec = DiagonalSourceSpec.from_json(spec_json)
    trace = gen_diagonal(spec, n, T, seed=trial_seed)
    bincode = design_bincode(spec, B, W, n, delta=delta, seed=trial_seed)
    stream = encode(trace, spec, B, W, bincode)
    if blen:
        stream = stream.with_erasures(channel.single_burst(start, blen, T))
    tail = [trace.tail[j][-1] for j in range(len(spec.widths))]
    try:
        outs = decode_stream(stream, bincode, tail)
    except DecodeFailure:
        return 1, 0
    window = set(range(start, min(start + blen + W, T))) if blen else set()
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


def cmd_simulate_det(args: argparse.Namespace) -> None:
    p = _merge_config(args, _DET_DEFAULTS)
    if p["spec"]:
        with open(p["spec"]) as fh:
            spec = DiagonalSourceSpec.from_json(json.load(fh))
    else:
        widths = _ints(p["widths"])
        spec = _full_rank_spec(np.random.default_rng([int(p["spec_seed"]), len(widths)]), widths)
    B, W, n, delta, T = (int(p[k]) for k in ("B", "W", "n", "delta", "T"))
    trials = int(p["trials"])
    # the lookahead code plans one deep layer per burst slot, so the spec
    # must sit at depth exactly B+W; pad or truncate before fanning out
    spec = normalize_K(spec, B, W).spec
    spec_json = spec.to_json()
    configs = [
        (start, blen)
        for blen in range(1, B + 1)
        for start in range(0, T - blen + 1)
    ]
    payloads = []
    for start, blen in configs:
        for i in range(trials):
            ss = np.random.SeedSequence(entropy=int(p["seed"]), spawn_key=(start, blen, i))
            payloads.append(
                (spec_json, B, W, n, delta, T, start, blen, int(ss.generate_state(1)[0]))
            )
    results = _map_jobs(_det_trial, payloads, int(p["jobs"]))
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
    _write_csv(rows, ["start", "blen", "trials", "failures", "mismatches"], p["out"])


# --------------------------------------------------------- simulate-gaussian


_GAUSS_DEFAULTS = {
    "d": "0.5,0.6,0.70710678",
    "B": 1,
    "W": 1,
    "n": 64,
    "T": 12,
    "burst": None,
    "mode": "ideal",
    "delta": 8,
    "seed": 0,
    "out": None,
}


def cmd_simulate_gaussian(args: argparse.Namespace) -> None:
    p = _merge_config(args, _GAUSS_DEFAULTS)
    report = gaussian_pipeline(
        _floats(p["d"]),
        int(p["B"]),
        int(p["W"]),
        n=int(p["n"]),
        T=int(p["T"]),
        burst=_parse_burst(p["burst"]),
        mode=str(p["mode"]),
        seed=int(p["seed"]),
        delta=int(p["delta"]),
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
    _write_csv(rows, ["time", "lag", "mse", "target", "met"], p["out"])


# ----------------------------------------------------------------- transform


_TRANSFORM_DEFAULTS = {
    "spec": None,
    "random_seed": None,
    "symbols": 64,
    "copies": 3,
    "out": None,
}


def cmd_transform(args: argparse.Namespace) -> None:
    p = _merge_config(args, _TRANSFORM_DEFAULTS)
    if p["spec"]:
        with open(p["spec"]) as fh:
            spec = SemiDetSpec.from_json(json.load(fh))
    elif p["random_seed"] is not None:
        spec = random_semidet_spec(np.random.default_rng(int(p["random_seed"])))
    else:
        raise InvalidInput("need --spec or --random-seed")
    T, n = int(p["symbols"]), int(p["copies"])
    trace = gen_semidet(spec, n=n, T=T, seed=0)

    checks: dict = {"symbols": T, "copies": n}
    if gf2.rank(spec.A) == spec.Nd:
        route = "one-shot"
        lmap, diag = case1_transform(spec)
        maps = [lmap]
        x = gf2.solve(spec.A, spec.B)
        checks["coupling_solved"] = bool((spec.A @ x) == spec.B)
        moved = apply_map(lmap, trace)
        back = invert_map(lmap, moved)
    else:
        route = "peel-cancel"
        fmap, tri = lf_transform(spec)
        bmap, diag = lb_transform(tri)
        maps = [fmap, bmap]
        moved = apply_map(bmap, apply_map(fmap, trace))
        back = invert_map(fmap, invert_map(bmap, moved))
    diag.validate()
    checks["derived_valid"] = True
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
    _write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n", p["out"])
    if not same:
        raise InvariantViolation("transform roundtrip failed to restore the trace")


# -------------------------------------------------------------------- oracle


_ORACLE_DEFAULTS = {
    "flip": None,
    "chain": None,
    "B": 1,
    "W": 0,
    "T": 1,
    "rate": None,
    "n": 12,
    "trials": 200,
    "seed": 0,
    "modes": "steady,post_burst,delayed",
    "horizon": None,
    "periodic": False,
    "out": None,
}


def cmd_oracle(args: argparse.Namespace) -> None:
    p = _merge_config(args, _ORACLE_DEFAULTS)
    chain = _load_chain(p)
    B, W, T, n = (int(p[k]) for k in ("B", "W", "T", "n"))
    rate = float(p["rate"]) if p["rate"] is not None else r_plus(chain, RateQuery(B=B, W=W))
    if p["periodic"]:
        horizon = int(p["horizon"]) if p["horizon"] is not None else 3 * (B + T + 1)
        states = periodic_delay_run(chain, B, T, rate, n, horizon, int(p["seed"]))
        rows = [{"time": t, "status": s[0]} for t, s in enumerate(states)]
        _write_csv(rows, ["time", "status"], p["out"])
        return
    modes = tuple(str(p["modes"]).split(","))
    stats = streaming_sw_experiment(
        chain,
        B,
        W,
        T,
        rate,
        n,
        int(p["trials"]),
        int(p["seed"]),
        horizon=None if p["horizon"] is None else int(p["horizon"]),
        modes=modes,
    )
    rows = [
        {
            "mode": mode,
            "rate": _fmt(rate),
            "n": n,
            "trials": int(p["trials"]),
            "decodes": stats[mode].decodes,
            "errors": stats[mode].errors,
            "ties": stats[mode].ties,
            "error_rate": _fmt(stats[mode].error_rate),
        }
        for mode in modes
    ]
    _write_csv(
        rows,
        ["mode", "rate", "n", "trials", "decodes", "errors", "ties", "error_rate"],
        p["out"],
    )


# --------------------------------------------------------------------- sweep


_SWEEP_DEFAULTS = {
    "flip": None,
    "chain": None,
    "B": 1,
    "W": 0,
    "T": 1,
    "n": 12,
    "trials": 400,
    "seed": 0,
    "modes": "steady,post_burst",
    "rates": None,
    "offsets": "-0.1,0,0.15",
    "threshold": "plus",
    "horizon": None,
    "jobs": 1,
    "out": None,
}


def _sweep_point(payload: tuple) -> list[dict]:
    P, B, W, T, rate, n, trials, seed, modes, horizon = payload
    chain = FiniteMarkovChain(P)
    stats = streaming_sw_experiment(
        chain, B, W, T, rate, n, trials, seed, horizon=horizon, modes=modes
    )
    return [
        {
            "rate": _fmt(rate),
            "mode": mode,
            "trials": trials,
            "decodes": stats[mode].decodes,
            "errors": stats[mode].errors,
            "error_rate": _fmt(stats[mode].error_rate),
        }
        for mode in modes
    ]


def cmd_sweep(args: argparse.Namespace) -> None:
    p = _merge_config(args, _SWEEP_DEFAULTS)
    chain = _load_chain(p)
    B, W, T, n = (int(p[k]) for k in ("B", "W", "T", "n"))
    if p["rates"] is not None:
        points = sorted(_floats(p["rates"]))
    else:
        if p["threshold"] == "delay":
            thr = r_delay(chain, B, T)
        elif p["threshold"] == "plus":
            thr = r_plus(chain, RateQuery(B=B, W=W))
        else:
            raise InvalidInput("threshold must be 'plus' or 'delay'")
        points = sorted(thr + o for o in _floats(p["offsets"]))
    modes = tuple(str(p["modes"]).split(","))
    horizon = None if p["horizon"] is None else int(p["horizon"])
    p_mat = chain.P.tolist()
    payloads = [
        (p_mat, B, W, T, rate, n, int(p["trials"]), int(p["seed"]), modes, horizon)
        for rate in points
    ]
    chunks = _map_jobs(_sweep_point, payloads, int(p["jobs"]))
    rows = [row for chunk in chunks for row in chunk]
    _write_csv(
        rows, ["rate", "mode", "trials", "decodes", "errors", "error_rate"], p["out"]
    )


# ---------------------------------------------------------------- the parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamcode", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, jobs: bool = False) -> None:
        sp.add_argument("--config", help="JSON file of parameters; flags override")
        sp.add_argument("--out", help="output path (default stdout)")
        if jobs:
            sp.add_argument("--jobs", type=int, help="worker processes (default 1)")

    sp = sub.add_parser("rates", help="closed-form rate tables as CSV")
    sp.add_argument("--flip", type=float, help="binary symmetric chain flip probability")
    sp.add_argument("--chain", help="JSON file with a transition matrix")
    sp.add_argument("--d", help="comma-separated distortion targets (lossy source)")
    sp.add_argument("--B", type=int)
    sp.add_argument("--W", type=int)
    sp.add_argument("--sweep", help="axis sweep, e.g. W=0..8")
    common(sp)
    sp.set_defaults(func=cmd_rates)

    sp = sub.add_parser("simulate-det", help="layered-source streaming over bursts")
    sp.add_argument("--spec", help="JSON layered-source spec file")
    sp.add_argument("--widths", help="layer widths for a seeded random spec")
    sp.add_argument("--spec-seed", dest="spec_seed", type=int)
    sp.add_argument("--B", type=int)
    sp.add_argument("--W", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--delta", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    common(sp, jobs=True)
    sp.set_defaults(func=cmd_simulate_det)

    sp = sub.add_parser("simulate-gaussian", help="lossy streaming pipeline report")
    sp.add_argument("--d")
    sp.add_argument("--B", type=int)
    sp.add_argument("--W", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--burst", help="start:length")
    sp.add_argument("--mode", choices=["ideal", "binned"])
    sp.add_argument("--delta", type=int)
    sp.add_argument("--seed", type=int)
    common(sp)
    sp.set_defaults(func=cmd_simulate_gaussian)

    sp = sub.add_parser("transform", help="reduce a two-layer source to layered form")
    sp.add_argument("--spec", help="JSON two-layer source spec")
    sp.add_argument("--random-seed", dest="random_seed", type=int)
    sp.add_argument("--symbols", type=int)
    sp.add_argument("--copies", type=int)
    common(sp)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("oracle", help="small-block bin decoding experiment")
    sp.add_argument("--flip", type=float)
    sp.add_argument("--chain")
    sp.add_argument("--B", type=int)
    sp.add_argument("--W", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--rate", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--modes")
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--periodic", action="store_const", const=True)
    common(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("sweep", help="bin-decoding error rates across rates")
    sp.add_argument("--flip", type=float)
    sp.add_argument("--chain")
    sp.add_argument("--B", type=int)
    sp.add_argument("--W", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--modes")
    sp.add_argument("--rates", help="explicit rate list")
    sp.add_argument("--offsets", help="offsets from the threshold rate")
    sp.add_argument("--threshold", choices=["plus", "delay"])
    sp.add_argument("--horizon", type=int)
    common(sp, jobs=True)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    # PatternViolation subclasses InvalidInput, so the exit-2 group must
    # be tried first: a broken erasure pattern is a structural failure of
    # the run, not a usage error.
    except (InvariantViolation, PatternViolation, DecodeFailure) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
