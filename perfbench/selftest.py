#!/usr/bin/env python3
"""Self-test of the bcsim benchmark.

    python3 perfbench/selftest.py

Run from the root of a bcsim source tree; builds like run.py does, takes
about a minute, exits 1 on any failed check. It checks that:
  * every workload, at a tiny size, emits every metric BENCHMARK.json names,
    with its unit, in both the untraced and the traced mode, and passes;
  * the traced run sees every delivery and replays the send stream exactly;
  * a tampered pin and a forced divergent grid cell are counted as failed
    operations (exit 0, "correct": false), not as a crash or a pass;
  * each pinned digest equals the digest of its recorded bcsim command line;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build lives there)

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def harness(*args):
    """Runs the harness; returns (result object or None, stdout lines, exit code)."""
    out = subprocess.run([run.HARNESS, *args, "--bcsim", run.BCSIM],
                         capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return result, lines, out.returncode


def check_result(res, code, names, units, label):
    check(code == 0 and res is not None, label + ": exits 0 with a JSON result line")
    if res is None:
        return
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          label + ": result has exactly correct/attempted/failed/metrics")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
          label + ": correct, no failed operation (%d attempted)" % res["attempted"])
    metrics = res["metrics"]
    check(sorted(metrics) == sorted(names), label + ": emits exactly the BENCHMARK.json metrics")
    bad = [n for n in names if n in metrics and (
        metrics[n].get("unit") != units[n] or isinstance(metrics[n].get("value"), bool)
        or not isinstance(metrics[n].get("value"), (int, float)))]
    check(not bad, label + ": every metric has a number and its unit" + (" %s" % bad if bad else ""))


def digest_line(lines):
    for line in lines:
        if line.startswith("digest: "):
            return line.split()[1]
    return None


def main():
    if not run.build():
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in (x["name"] for x in spec["workloads"]):
        res, _, code = harness("--workload", w, "--tiny", "--seconds", "1", "--trace", "0")
        check_result(res, code, list(e2e), e2e, w + " untraced")
        res, _, code = harness("--workload", w, "--tiny", "--seconds", "2", "--trace", "1")
        check_result(res, code, list(layer), layer, w + " traced")
        if res is not None and w != "diff-grid":
            m = {k: v["value"] for k, v in res["metrics"].items()}
            check(m["proto.dir.calls"] + m["core.cache.calls"] == m["net.messages"] > 0,
                  w + " traced: handler calls sum to net.messages")
            check(m["net.replay_contention_cycles"] == m["net.contention_cycles"],
                  w + " traced: the replayed send stream reproduces the contention")

    _, lines, _ = harness("--workload", "wq-wbi-256", "--tiny", "--seconds", "1")
    digest = digest_line(lines)
    check(digest is not None, "untraced run prints its digest")
    if digest is not None:
        res, _, code = harness("--workload", "wq-wbi-256", "--tiny", "--seconds", "1",
                               "--pin", digest)
        check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
              "the run's own digest as the pin passes")
        tampered = "%016x" % (int(digest, 16) ^ 1)
        res, _, code = harness("--workload", "wq-wbi-256", "--tiny", "--seconds", "1",
                               "--pin", tampered)
        check(code == 0 and res is not None and res["correct"] is False
              and res["failed"] == res["attempted"] >= 1,
              "a tampered pin fails every operation without crashing")

    for trace in ("0", "1"):
        res, _, code = harness("--workload", "diff-grid", "--tiny", "--seconds", "1",
                               "--trace", trace, "--inject-fault", "drop-noretry")
        check(code == 0 and res is not None and res["correct"] is False and res["failed"] > 0,
              "diff-grid --trace %s: forced divergent cells count as failed" % trace)

    out = subprocess.run([run.HARNESS, "--list-pins"], capture_output=True, text=True)
    pins = [line.split(None, 2) for line in out.stdout.strip().splitlines()]
    check(len(pins) == 3, "three machine workloads are pinned")
    for name, pin, cli in pins:
        cmd = subprocess.run([run.BCSIM] + cli.split(), capture_output=True, text=True)
        check(digest_line(cmd.stdout.splitlines()) == pin,
              "%s: pinned %s equals `bcsim %s`" % (name, pin, cli))

    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
    out = subprocess.run(["python3", "perfbench/run.py", "--workload", "wq-wbi-256",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and "{" not in out.stdout,
          "without the sources run.py exits %d and prints no result" % out.returncode)

    print("selftest: %d failed check(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
