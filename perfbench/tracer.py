"""Span tracer for the benchmark's traced run.

The tracer wraps public callables of the library from the outside: it
replaces a module or class attribute with a wrapper that records one span
per call and calls the original.  Nothing under ``src/`` knows about it.
Spans stay in memory as tuples ``(name, start, end, parent, bytes)`` and are
written out once, when the run ends.  ``uninstall`` puts every original
object back; ``assert_clean`` checks that no wrapper is left behind.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

_MARK = "_perfbench_span"


def _n_words(bits: int) -> int:
    return (bits + 63) >> 6


def _prefactor_bytes(args) -> int:
    # PrefactoredSolver.__init__(self, a) eliminates the packed [A | I]
    a = args[1]
    return a.rows * _n_words(a.cols + a.rows) * 8


def _mul_vec_bytes(args) -> int:
    # BitMatrix.mul_vec(self, vec) reads every matrix word and the vector
    return args[0].words.nbytes + args[1].words.nbytes


# (module path, owner attribute or None, attribute, span name, bytes fn).
# Library modules that bind a name with ``from x import y`` keep their own
# reference, so each such copy is wrapped where it is looked up.
TARGETS = (
    ("streamcode.gf2", "PrefactoredSolver", "__init__", "gf2.prefactor", _prefactor_bytes),
    ("streamcode.gf2", "PrefactoredSolver", "solve_unique", "gf2.prefactored_solve", None),
    ("streamcode.gf2", "BitMatrix", "mul_vec", "gf2.mul_vec", _mul_vec_bytes),
    ("streamcode.gf2", "BitMatrix", "from_bits", "gf2.from_bits", None),
    ("streamcode.gf2", "BitVector", "from_bits", "gf2.from_bits", None),
    ("streamcode.prospicient", "BinCode", "matrix", "prospicient.hash_matrix", None),
    ("streamcode.prospicient", None, "design_bincode", "prospicient.design_bincode", None),
    ("streamcode.prospicient", None, "encode", "prospicient.encode", None),
    ("streamcode.prospicient", None, "decode_step", "prospicient.decode_step", None),
    ("streamcode.prospicient", None, "decode_stream", "prospicient.decode_stream", None),
    ("streamcode.sources", None, "gen_diagonal", "sources.gen_diagonal", None),
    ("streamcode.rates", None, "diagonal_rate", "rates.calc", None),
    ("streamcode.rates", None, "gaussian_rate", "rates.calc", None),
    ("streamcode.rates", None, "r_plus", "rates.calc", None),
    ("streamcode.rates", None, "r_delay", "rates.calc", None),
    ("streamcode.markov", None, "k_step", "markov.k_step", None),
    ("streamcode.sw_binning", None, "k_step", "markov.k_step", None),
    ("streamcode.sw_binning", None, "ml_decode", "sw_binning.ml_decode", None),
    ("streamcode.sw_binning", None, "sample_path", "sw_binning.sample_path", None),
    ("streamcode.sw_binning", None, "streaming_sw_experiment", "sw_binning.experiment", None),
    ("streamcode.gaussian_stream", None, "design_bincode", "prospicient.design_bincode", None),
    ("streamcode.gaussian_stream", None, "encode", "prospicient.encode", None),
    ("streamcode.gaussian_stream", None, "decode_stream", "prospicient.decode_stream", None),
    ("streamcode.gaussian_stream", None, "diagonal_rate", "rates.calc", None),
    ("streamcode.gaussian_stream", None, "gaussian_rate", "rates.calc", None),
    ("streamcode.gaussian_stream", None, "sr_encode", "gaussian_stream.sr_encode", None),
    ("streamcode.gaussian_stream", None, "sr_decode", "gaussian_stream.sr_decode", None),
    ("streamcode.gaussian_stream", None, "layer_rearrange", "gaussian_stream.layer_rearrange", None),
    ("streamcode.gaussian_stream", None, "gaussian_pipeline", "gaussian_stream.pipeline", None),
)


def _owner(modules: dict, mod: str, cls: str | None):
    owner = modules[mod]
    return owner if cls is None else getattr(owner, cls)


def _decode_kind(recovering: bool, result) -> str:
    """Name a decode_step call by what it did: a steady one-packet solve,
    the stacked solve at a recovery deadline, or an erased/buffered packet
    that returned a skip marker."""
    if result[1] is None:
        return "prospicient.buffered"
    return "prospicient.deadline" if recovering else "prospicient.steady"


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str, bytes_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_decode_step = name == "prospicient.decode_step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            nbytes = bytes_fn(args) if bytes_fn is not None else 0
            recovering = is_decode_step and args[0].mode == "recovering"
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, nbytes)
            if is_decode_step:
                spans[idx] = (_decode_kind(recovering, result), start, end, parent, nbytes)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, cls, attr, name, bytes_fn in TARGETS:
            owner = _owner(self.modules, mod, cls)
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(orig.__func__, name, bytes_fn))
            else:
                new = self._wrap(orig, name, bytes_fn)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        for owner, attr, orig in self._saved:
            if vars(owner)[attr] is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        self._saved = []

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end (s), parent index."""
        with open(path, "w") as fp:
            for i, (name, start, end, parent, nbytes) in enumerate(self.spans):
                rec = {"i": i, "name": name, "start": start, "end": end, "parent": parent}
                if nbytes:
                    rec["bytes"] = nbytes
                fp.write(json.dumps(rec) + "\n")


def assert_clean(modules: dict) -> None:
    """Raise if any traced attribute still holds a wrapper."""
    for mod, cls, attr, _, _ in TARGETS:
        obj = vars(_owner(modules, mod, cls))[attr]
        fn = obj.__func__ if isinstance(obj, classmethod) else obj
        if getattr(fn, _MARK, False):
            raise RuntimeError(f"{mod}.{cls or ''}.{attr} is still wrapped")


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# decode_step spans keep their plain name only when the call raised
DECODE_FAMILY = (
    "prospicient.decode_stream",
    "prospicient.decode_step",
    "prospicient.steady",
    "prospicient.deadline",
    "prospicient.buffered",
)


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer counts, busy time, self time and computed bytes."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    durs: dict[str, list[float]] = {}
    for i, (name, start, end, parent, b) in enumerate(spans):
        d = end - start
        count[name] = count.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d - child[i]
        nbytes[name] = nbytes.get(name, 0) + b
        durs.setdefault(name, []).append(d)

    c = lambda n: count.get(n, 0)
    s = lambda n: busy.get(n, 0.0)
    solves = c("gf2.prefactored_solve")
    out = {
        "sources.gen_diagonal.s": (s("sources.gen_diagonal"), "s"),
        "rates.calc.s": (s("rates.calc"), "s"),
        "markov.k_step.count": (c("markov.k_step"), "count"),
        "markov.k_step.s": (s("markov.k_step"), "s"),
        "prospicient.design_bincode.s": (s("prospicient.design_bincode"), "s"),
        "prospicient.hash_matrix.count": (c("prospicient.hash_matrix"), "count"),
        "prospicient.hash_matrix.s": (s("prospicient.hash_matrix"), "s"),
        "prospicient.encode.s": (s("prospicient.encode"), "s"),
        "prospicient.steady.count": (c("prospicient.steady"), "count"),
        "prospicient.steady.ms_p50": (1e3 * _p50(durs.get("prospicient.steady", [])), "ms"),
        "prospicient.deadline.count": (c("prospicient.deadline"), "count"),
        "prospicient.deadline.ms_p50": (1e3 * _p50(durs.get("prospicient.deadline", [])), "ms"),
        "prospicient.decode.self_s": (sum(self_s.get(n, 0.0) for n in DECODE_FAMILY), "s"),
        # hits over solves; 0 when the workload makes no prefactored solve
        "prospicient.solver_hit_ratio": (
            1.0 - c("gf2.prefactor") / solves if solves else 0.0,
            "ratio",
        ),
        "gf2.prefactor.count": (c("gf2.prefactor"), "count"),
        "gf2.prefactor.s": (s("gf2.prefactor"), "s"),
        "gf2.prefactor.bytes": (nbytes.get("gf2.prefactor", 0), "bytes"),
        "gf2.prefactored_solve.count": (solves, "count"),
        "gf2.prefactored_solve.s": (s("gf2.prefactored_solve"), "s"),
        "gf2.mul_vec.count": (c("gf2.mul_vec"), "count"),
        "gf2.mul_vec.s": (s("gf2.mul_vec"), "s"),
        "gf2.mul_vec.bytes": (nbytes.get("gf2.mul_vec", 0), "bytes"),
        "gf2.from_bits.count": (c("gf2.from_bits"), "count"),
        "gf2.from_bits.s": (s("gf2.from_bits"), "s"),
        "gaussian_stream.sr_encode.s": (s("gaussian_stream.sr_encode"), "s"),
        "gaussian_stream.sr_decode.s": (s("gaussian_stream.sr_decode"), "s"),
        "gaussian_stream.layer_rearrange.s": (s("gaussian_stream.layer_rearrange"), "s"),
        "gaussian_stream.pipeline.self_s": (self_s.get("gaussian_stream.pipeline", 0.0), "s"),
        "sw_binning.ml_decode.count": (c("sw_binning.ml_decode"), "count"),
        "sw_binning.ml_decode.s": (s("sw_binning.ml_decode"), "s"),
        "sw_binning.ml_decode.self_s": (self_s.get("sw_binning.ml_decode", 0.0), "s"),
        "sw_binning.sample_path.s": (s("sw_binning.sample_path"), "s"),
        "sw_binning.experiment.self_s": (self_s.get("sw_binning.experiment", 0.0), "s"),
    }
    return out
