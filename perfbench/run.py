"""Run one benchmark workload against the mersexp sources of this checkout.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Progress and diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import checker as ck
from workloads import WORKLOADS, CliCorpus, cli_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
START_SAMPLES = 5
MAX_TRACED_ROUNDS = 5
CLI_ROUNDS = 3
TAIL_BEYOND = 10  # op_tail_ms leaves this many operations beyond it


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_api(need_cli: bool = False):
    """Import mersexp from this checkout's src/ and return its modules."""
    sys.path.insert(0, str(SRC))
    import mersexp
    from mersexp import carry, closed_form, orderings, residues, sbox

    if not Path(mersexp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mersexp was imported from {mersexp.__file__}, not from {SRC}")
    cli = None
    if need_cli:
        from mersexp import cli
    return types.SimpleNamespace(src=str(SRC), residues=residues, carry=carry, orderings=orderings,
                                 closed_form=closed_form, sbox=sbox, cli=cli)


def set_up(name: str, seed: int, recorder=None):
    """Import, generate the inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    api = load_api()
    if recorder is not None:
        recorder.install(api)
    workload = WORKLOADS[name](seed, api)
    workload.warm_up()
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.uninstall()
    return workload, elapsed


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, one sample each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Tally:
    """Attempted and failed operations, with the verdict of each output."""

    def __init__(self, workload, oracle) -> None:
        self.workload, self.oracle = workload, oracle
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []
        self.known: set[str] = set()
        self.verdicts: dict[int, tuple[object, str | None]] = {}

    def judge(self, index: int, op, out) -> None:
        """Check an output; an output equal to one already checked reuses its verdict."""
        wl = self.workload
        self.attempted += 1
        fp = ("raised", repr(out)) if isinstance(out, Exception) else hash(out)
        seen = self.verdicts.get(index)
        if seen is not None and seen[0] == fp:
            message = seen[1]
        else:
            try:
                if isinstance(out, Exception):
                    raise ck.Mismatch(f"raised {out!r}")
                wl.check(op, out, self.oracle)
                message = None
            except ck.Mismatch as exc:
                message = str(exc)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                message = f"malformed output: {exc!r}"
            self.verdicts[index] = (fp, message)
        if message is None:
            return
        self.failed += 1
        if wl.known_fault(op, message):
            self.known.add(message)
        elif message not in self.unexpected:
            self.unexpected.append(message)
            log(f"FAILED {op[:3]}: {message}")


def run_rounds(execute, tally: Tally, seconds: float = 0.0, count: int | None = None,
               recorder=None, first_op: int = 0):
    """Whole rounds of the workload's operations: count of them, or else
    as many as it takes for their time to reach seconds.

    Only execute() is timed; checking happens between operations.
    Returns (operation times in ns, one list per round; the next
    operation id).
    """
    ops = tally.workload.ops
    clock = time.perf_counter_ns
    latencies: list[list[int]] = []
    op_id = first_op
    busy = 0
    while not latencies or (len(latencies) < count if count is not None else busy < seconds * 1e9):
        times = []
        for index, op in enumerate(ops):
            if recorder is not None:
                recorder.op_id = op_id
            t0 = clock()
            try:
                out = execute(op)
            except Exception as exc:  # judged as a failed operation
                out = exc
            times.append(clock() - t0)
            op_id += 1
            tally.judge(index, op, out)
        latencies.append(times)
        busy += sum(times)
    return latencies, op_id


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def start_cost_ms() -> tuple[float, float]:
    """Median `python -c pass` and median extra for `import mersexp`, in ms."""
    env = cli_env(str(SRC))

    def median_ms(code: str) -> float:
        times = []
        for _ in range(START_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    bare = median_ms("pass")
    return bare, median_ms("import mersexp") - bare


def make_oracle(workload):
    if not workload.needs_field_oracle:
        return None
    return ck.UniformityOracle(ck.sympy_irreducibles())


def end_to_end(args) -> tuple[Tally, dict]:
    workload, _ = set_up(args.workload, args.seed)
    setups = setup_seconds(args.workload, args.seed)
    tally = Tally(workload, make_oracle(workload))
    latencies, _ = run_rounds(workload.execute, tally, args.seconds)
    ops = len(workload.ops)
    # rounds repeat the same operations, so each operation's median over
    # the rounds ignores a slow stretch of the machine that covers fewer
    # than half of them
    per_op = sorted(statistics.median(times[i] for times in latencies) for i in range(ops))
    log(f"{workload.name}: {len(latencies)} rounds of {ops} ops, {len(latencies) * ops} samples; "
        f"op_tail_ms is p{100 * (ops - TAIL_BEYOND) / ops:.4g} of the {ops} median times, "
        f"{TAIL_BEYOND} ops beyond it; set-up samples {setups}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / (sum(per_op) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(per_op) / 1e6, "ms"),
        "op_tail_ms": (per_op[-TAIL_BEYOND - 1] / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return tally, metrics


def round_times(latencies) -> list[int]:
    return [sum(times) for times in latencies]


def mean_ms(latencies) -> float:
    return statistics.fmean(t for times in latencies for t in times) / 1e6


def traced_run(execute, tally: Tally, count: int, recorder, first_op: int):
    recorder.install(tally.workload.api)
    try:
        latencies, op_id = run_rounds(execute, tally, count=count, recorder=recorder, first_op=first_op)
    finally:
        recorder.uninstall()
    return round_times(latencies), op_id


def cli_layer(seed: int, api) -> tuple[Tally, float, float]:
    """Time the CLI corpus as mersexp processes and through main() here.

    Returns the corpus's tally and the mean ms per call of each.  The
    calls are checked like workload operations but are not operations
    of the workload, so they stay out of its attempted and failed counts.
    """
    from mersexp import cli

    api.cli = cli
    corpus = CliCorpus(seed, api)
    tally = Tally(corpus, ck.UniformityOracle(ck.sympy_irreducibles()))
    processes, _ = run_rounds(corpus.execute, tally, count=CLI_ROUNDS)
    mains, _ = run_rounds(corpus.run_main, tally, count=CLI_ROUNDS)
    return tally, mean_ms(processes), mean_ms(mains)


def per_layer(args) -> tuple[Tally, dict]:
    from spans import SpanRecorder

    recorder = SpanRecorder()
    workload, _ = set_up(args.workload, args.seed, recorder)
    tally = Tally(workload, make_oracle(workload))
    plain, op_id = run_rounds(workload.execute, tally, args.seconds / 2)
    traced_rounds = min(len(plain), MAX_TRACED_ROUNDS)
    traced, _ = traced_run(workload.execute, tally, traced_rounds, recorder, op_id)
    cli_tally, process_ms, main_ms = cli_layer(args.seed, workload.api)
    tally.unexpected += cli_tally.unexpected
    interpreter_ms, import_ms = start_cost_ms()
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
    recorder.write(trace_file)
    log(f"{workload.name}: {len(recorder)} spans over {traced_rounds} traced rounds written to {trace_file}")
    base_round = statistics.fmean(round_times(plain[-traced_rounds:]))
    layers = recorder.layer_metrics(traced_rounds)
    layers.update({
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": main_ms,
        "cli.process_ms": process_ms,
        "trace.overhead_pct": (statistics.fmean(traced) / base_round - 1) * 100,
    })
    units = {"calls": "count", "case_labels": "count", "solve_calls": "count", "scans": "count",
             "bits_per_s": "1/s", "overhead_pct": "%"}
    metrics = {name: (value, units.get(name.split(".", 1)[1], "ms")) for name, value in layers.items()}
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once in this process and print the seconds it took")
    args = parser.parse_args(argv)
    if not (SRC / "mersexp" / "__init__.py").is_file():
        log(f"no mersexp sources under {SRC}; run from a full checkout")
        return 2
    if args.setup_only:
        _, seconds = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    tally, metrics = (per_layer if args.trace else end_to_end)(args)
    for name, (value, unit) in metrics.items():
        log(f"{args.workload}  {name:26s} {value:14.6g} {unit}")
    log(f"{args.workload}  attempted {tally.attempted}, failed {tally.failed}"
        + "".join(f"\n  known fault: {m}" for m in sorted(tally.known)))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
