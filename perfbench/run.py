"""Benchmark of the `gamecomonads` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  The seed fixes the workload's inputs (see `jobs.py`).  Each job is a
fresh `gamecomonads` process, run one at a time (a closed loop with one
client), and the job list is repeated in rounds: at least four, and more
while another round fits in S seconds.  Every invocation is checked: exit
code, report line against the known answer, certificate re-verification,
kappa against the oracles, and a stdout byte-identical to the first round.

With `--trace 0` the last stdout line reports the end-to-end metrics:

  decide_s     summed per-job median wall seconds of the decision jobs
  verify_s     the same for the `verify` jobs on their certificates
  job_ms_p50   median wall ms over every invocation
  job_ms_tail  wall ms at the highest percentile leaving >= 10 invocations
               above it, for the minimum number of rounds
  peak_rss_mb  largest max-RSS of any job process
  setup_s      median of three set-ups: generate and write the inputs, then
               one warm-up import of the CLI

Every wall time in these metrics is scaled to a fixed machine speed: it is
multiplied by REFERENCE_S over the median wall time of the runs of a fixed
reference program (`measure.REFERENCE`, run between jobs every
REFERENCE_EVERY_S) that lie within REFERENCE_WINDOW_S of it.  On a shared machine the speed of
processes drifts by tens of percent within a minute; the scaled time
follows the program instead.  The summary lines above the result give each
job's median in scaled and in plain wall ms.

With `--trace 1` it runs one untraced round, then traced in-process rounds
for S seconds, and reports per-layer self seconds, counters, the bare
interpreter start-up and CLI import times, and `trace.coverage`: start-up
plus import plus the traced `cli.main` time per job, over the untraced wall
time of the same jobs.  The spans of the last traced round are written to
`perfbench/_spans/<workload>-<seed>.jsonl`.  Exit status: 0 when every
check passed, 1 when any failed, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs as jobs_mod
import measure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SPANS = Path(__file__).resolve().parent / "_spans"
ENTRY = "import sys; from gamecomonads.cli import main; sys.exit(main())"
MIN_ROUNDS = 4
SETUP_REPS = 3
STARTUP_REPS = 5
JOB_TIMEOUT_S = 60
REFERENCE_EVERY_S = 3.0
REFERENCE_WINDOW_S = 5.0

E2E_UNITS = {"decide_s": "s", "verify_s": "s", "job_ms_p50": "ms", "job_ms_tail": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "cli.startup_ms": "ms", "cli.import_ms": "ms", "cli.main_self_ms": "ms",
    "structures.parse_s": "s", "structures.find_hom_s": "s",
    "structures.partial_checks": "count", "structures.partial_check_s": "s",
    "ef.decide_s": "s", "ef.plays": "count", "modal.decide_s": "s",
    "equivalence.backforth_s": "s", "equivalence.duplicator_entries": "count",
    "equivalence.iso_s": "s", "pebbling.decide_s": "s", "pebbling.family_parts": "count",
    "pebbling.refutation_nodes": "count", "equivalence.pebble_backforth_s": "s",
    "equivalence.pebble_positions": "count", "equivalence.pebble_safe_ratio": "ratio",
    "parameters.kappa_ef_s": "s", "parameters.kappa_pebble_s": "s",
    "parameters.kappa_modal_s": "s", "parameters.oracle_treedepth_s": "s",
    "parameters.oracle_treewidth_s": "s", "certificates.emit_s": "s",
    "certificates.bytes": "count", "certificates.parse_s": "s", "certificates.verify_s": "s",
    "logic.sample_s": "s", "logic.eval_s": "s", "trace.coverage": "ratio",
}


class SetupError(Exception):
    pass


@dataclass
class Outcome:
    code: int
    start: float
    wall: float
    rss_kb: int
    stdout: bytes
    timed_out: bool

    @property
    def middle(self) -> float:
        return self.start + self.wall / 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Let the warm-up import leave bytecode in src/ that later jobs load, as
    # an installed program's would, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(args, cwd: Path, timeout: float = JOB_TIMEOUT_S) -> Outcome:
    """Run `python <args>` to completion; wall time from spawn to reaping."""
    out_path = cwd / ".stdout"
    with open(out_path, "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss
        except ChildProcessError:  # reaped by the timer's kill at the deadline
            code, rss = -9, 0
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = code
        out.seek(0)
        stdout = out.read()
    return Outcome(code, t0, wall, rss, stdout, timed_out=killed.is_set())


def run_job(job, cwd: Path) -> Outcome:
    return run_process(("-c", ENTRY, *job.argv), cwd)


def setup(workload: str, seed: int, work: Path) -> tuple[jobs_mod.Workload, float, float]:
    """Generate and write the inputs, then warm the import; returns the
    workload, the start moment and the time taken."""
    t0 = time.perf_counter()
    wl = jobs_mod.WORKLOADS[workload](seed)
    for name, graph in wl.files.items():
        (work / name).write_text(graph.text(), encoding="utf-8")
    warm = run_process(("-c", "import gamecomonads.cli"), work)
    if warm.code != 0:
        raise SetupError(f"cannot import gamecomonads.cli from {SRC}")
    return wl, t0, time.perf_counter() - t0


def _value(stdout: bytes) -> int | None:
    for line in stdout.decode("utf-8", "replace").splitlines():
        key, _, val = line.partition(": ")
        if key in ("kappa", "treedepth", "treewidth") and val.strip().isdigit():
            return int(val)
    return None


def check_round(wl, got: dict, first: dict) -> dict[str, list[str]]:
    """Problems per job id for one round of (exit code, stdout) results;
    `first` holds each job's stdout from the first round."""
    problems = {job.id: [] for job in wl.jobs}
    for job in wl.jobs:
        code, stdout = got[job.id]
        if code != job.exit:
            problems[job.id].append(f"exit {code}, expected {job.exit}")
        if job.line and job.line not in stdout.decode("utf-8", "replace").splitlines():
            problems[job.id].append(f"report lacks {job.line!r}")
        if stdout != first[job.id]:
            problems[job.id].append("report differs from the first round")
    for left, op, right, offset in wl.relations:
        lv, rv = _value(got[left][1]), _value(got[right][1])
        ok = lv is not None and rv is not None and (
            lv == rv + offset if op == "==" else lv >= rv + offset)
        if not ok:
            problems[left].append(f"{lv} {op} {rv} + {offset} fails against {right}")
    return problems


class Ledger:
    """Attempted and failed invocations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, problems: dict[str, list[str]]) -> None:
        for jid, why in problems.items():
            self.attempted += 1
            if why:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(f"{jid}: {'; '.join(why)}")


def reference_run(work: Path, speed: measure.SpeedScale) -> None:
    """Time the reference program (see `measure.REFERENCE`) into `speed`."""
    o = run_process(("-c", measure.REFERENCE), work)
    if o.code != 0:
        raise SetupError("the reference program failed")
    speed.add(o.middle, o.wall)


def subprocess_round(wl, work: Path, ledger: Ledger, first: dict,
                     speed: measure.SpeedScale) -> dict:
    """Run every job once, keeping reference runs at most REFERENCE_EVERY_S
    apart."""
    outcomes = {}
    for job in wl.jobs:
        if time.perf_counter() - speed.last >= REFERENCE_EVERY_S:
            reference_run(work, speed)
        o = run_job(job, work)
        outcomes[job.id] = o
        if o.timed_out:
            ledger.reasons.append(f"{job.id}: timed out after {JOB_TIMEOUT_S} s")
    got = {jid: (o.code, o.stdout) for jid, o in outcomes.items()}
    for jid, res in got.items():
        first.setdefault(jid, res[1])
    ledger.add(check_round(wl, got, first))
    return outcomes


def _rounds(seconds: float, body) -> None:
    """Call `body` at least MIN_ROUNDS times, then while another call fits."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        done += 1


def end_to_end(wl, work: Path, seconds: float, ledger: Ledger,
               speed: measure.SpeedScale) -> dict:
    runs: dict[str, list[Outcome]] = {job.id: [] for job in wl.jobs}
    first: dict = {}

    def one_round():
        for jid, o in subprocess_round(wl, work, ledger, first, speed).items():
            runs[jid].append(o)

    _rounds(seconds, one_round)
    reference_run(work, speed)
    scaled = {jid: [speed.scale(o.middle, o.wall) for o in os_] for jid, os_ in runs.items()}
    med = {jid: statistics.median(ws) for jid, ws in scaled.items()}
    every = [w for ws in scaled.values() for w in ws]
    tail_p = measure.tail_percentile(len(wl.jobs) * MIN_ROUNDS)
    rounds = len(runs[wl.jobs[0].id])
    print(f"# {wl.name}: {len(wl.jobs)} jobs ({wl.decisions} decisions) x {rounds} rounds; "
          f"job_ms over {len(every)} invocations, tail at p{tail_p:g}")
    for job in wl.jobs:
        print(f"# job {job.id}: {med[job.id] * 1000:.1f} ms scaled, "
              f"{statistics.median(o.wall for o in runs[job.id]) * 1000:.1f} ms wall")
    return {
        "decide_s": sum(med[j.id] for j in wl.jobs if j.kind == "decide"),
        "verify_s": sum(med[j.id] for j in wl.jobs if j.kind == "verify"),
        "job_ms_p50": statistics.median(every) * 1000,
        "job_ms_tail": measure.percentile(every, tail_p) * 1000,
        "peak_rss_mb": max(o.rss_kb for os_ in runs.values() for o in os_) / 1024,
    }


def per_layer(wl, seed: int, work: Path, seconds: float, ledger: Ledger,
              speed: measure.SpeedScale) -> dict:
    sys.path.insert(0, str(SRC))
    import tracing

    first: dict = {}
    untraced = subprocess_round(wl, work, ledger, first, speed)
    wall_s = sum(o.wall for o in untraced.values())
    bare = [run_process(("-c", "pass"), work).wall for _ in range(STARTUP_REPS)]
    imported = [run_process(("-c", "import gamecomonads.cli"), work).wall
                for _ in range(STARTUP_REPS)]
    startup_s = statistics.median(bare)
    import_s = statistics.median(imported) - startup_s

    rounds: list[dict] = []

    SPANS.mkdir(exist_ok=True)
    spans_path = SPANS / f"{wl.name}-{seed}.jsonl"

    def one_round():
        values, got = tracing.traced_round(wl.jobs, spans_path)
        ledger.add(check_round(wl, got, first))
        overhead = len(wl.jobs) * (startup_s + import_s)
        values["trace.coverage"] = (overhead + values.pop("main_s")) / wall_s
        rounds.append(values)

    cwd = Path.cwd()
    os.chdir(work)
    try:
        _rounds(max(seconds - wall_s, 0.0), one_round)
    finally:
        os.chdir(cwd)
    print(f"# {wl.name}: 1 untraced round ({wall_s:.3f} s) and {len(rounds)} traced rounds; "
          f"spans of the last in {spans_path.relative_to(ROOT)}")
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["cli.startup_ms"] = startup_s * 1000
    values["cli.import_ms"] = import_s * 1000
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(jobs_mod.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gamecomonads" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        speed = measure.SpeedScale(REFERENCE_WINDOW_S)
        reference_run(work, speed)
        setups = []
        for _ in range(SETUP_REPS):
            wl, start, took = setup(args.workload, args.seed, work)
            setups.append((start + took / 2, took))
        ledger = Ledger()
        if args.trace:
            values = per_layer(wl, args.seed, work, args.seconds, ledger, speed)
            units = LAYER_UNITS
        else:
            values = end_to_end(wl, work, args.seconds, ledger, speed)
            values["setup_s"] = statistics.median(speed.scale(*s) for s in setups)
            units = E2E_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in ledger.reasons:
        print(f"# FAILED {reason}")
    print(f"# failed_share: {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:g}")
    for name, unit in units.items():
        print(f"# {name}: {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
