#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two recorded runs.

Run one workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload mixed-rw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py ... --record results.jsonl   # also append it there

Compare two files of recorded runs (median and quartiles per workload
and metric over the correct runs; a move is flagged only when it is
beyond the metric's bound in BENCHMARK.json, and the new side is also
flagged when it has more failures or incorrect runs than the old):

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Run from the root of a source checkout: the benchmark is compiled from
the sources with dune first.
"""

import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a source checkout" % need)
    # the shared dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
        timeout=850,
    )
    if r.returncode != 0:
        fail("build failed")


def run(args):
    record = None
    if "--record" in args:
        i = args.index("--record")
        if i + 1 >= len(args):
            fail("--record needs a file")
        record = args[i + 1]
        args = args[:i] + args[i + 2 :]
    build()
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(r.returncode)
    if record:
        opt = dict(zip(args[::2], args[1::2]))
        line = r.stdout.strip().splitlines()[-1]
        entry = {
            "workload": opt.get("--workload"),
            "seed": opt.get("--seed"),
            "trace": opt.get("--trace"),
            "result": json.loads(line),
        }
        with open(record, "a") as f:
            f.write(json.dumps(entry) + "\n")


def load(path):
    """({workload: {metric: [values]}}, {workload: [failed, attempted, rejected runs]})
    from a file of recorded runs.  A run that was not correct adds its
    counts but none of its metrics."""
    out, tally = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            e = json.loads(line)
            r = e["result"]
            t = tally.setdefault(e["workload"], [0, 0, 0])
            t[0] += r["failed"]
            t[1] += r["attempted"]
            if not r["correct"] or r["failed"]:
                t[2] += 1
                continue
            for name, m in r["metrics"].items():
                out.setdefault(e["workload"], {}).setdefault(name, []).append(m["value"])
    return out, tally


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def compare(old_path, new_path):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"] + bench["per_layer"]}
    (old, old_t), (new, new_t) = load(old_path), load(new_path)
    flagged = 0
    for wl in sorted(set(old_t) | set(new_t)):
        print("== %s" % wl)
        (of, oa, orej), (nf, na, nrej) = old_t.get(wl, [0, 0, 0]), new_t.get(wl, [0, 0, 0])
        note = ""
        if nf > of or nrej > orej:
            note = "  MORE FAILURES in new"
            flagged += 1
        print(
            "  failed/attempted: old %d/%d (%d incorrect runs left out), new %d/%d (%d left out)%s"
            % (of, oa, orej, nf, na, nrej, note)
        )
        print("  %-34s %28s %28s %8s" % ("metric", "old median [q1, q3]", "new median [q1, q3]", "change"))
        for name in sorted(set(old.get(wl, {})) | set(new.get(wl, {}))):
            a, b = old.get(wl, {}).get(name), new.get(wl, {}).get(name)
            if not a or not b:
                print("  %-34s only in %s" % (name, "old" if a else "new"))
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            change = (bm - am) / abs(am) if am else 0.0
            note = ""
            if name in bounds:
                worse = change if lower.get(name, True) else -change
                if worse > bounds[name]["bound"]:
                    note = "  WORSE beyond bound %.2f" % bounds[name]["bound"]
                    flagged += 1
            print(
                "  %-34s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%%%s"
                % (name, am, a1, a3, bm, b1, b3, 100 * change, note)
            )
    print("%d flag(s): end-to-end metrics worse beyond their bound, or more failures" % flagged)
    return 1 if flagged else 0


def main():
    args = sys.argv[1:]
    if args[:1] == ["--compare"]:
        if len(args) != 3:
            fail("usage: run.py --compare OLD NEW")
        sys.exit(compare(args[1], args[2]))
    run(args)


if __name__ == "__main__":
    main()
