#!/usr/bin/env python3
"""Check that the test suite kills every committed mutant.

Each mutant in mutants.json names a source file, an exact text to
find there (it must occur exactly once) and its replacement, and the
test binary that must then fail. The script checks out a commit
(default HEAD) in a scratch `git worktree`, configures it with CMake
once, and for each mutant: applies the edit, rebuilds only the named
test target, runs it, and restores the file. Before any mutant it
builds and runs every named test on the unmutated tree, which must
pass. It exits 1 if a mutant survives, its edit does not apply, or a
test fails unmutated:

    python3 tests/mutants/run_mutants.py
    python3 tests/mutants/run_mutants.py --only raw.block --jobs 4

A surviving mutant means a test is missing: add the test, never
delete the mutant.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--list", default=os.path.join(HERE, "mutants.json"),
                   help="mutant list (default: mutants.json beside this)")
    p.add_argument("--ref", default="HEAD", help="commit to check out")
    p.add_argument("--workdir", default=None,
                   help="where the worktree goes (default: a temp dir)")
    p.add_argument("--only", default=None,
                   help="run the mutants whose id starts with this")
    p.add_argument("--jobs", default=str(os.cpu_count() or 2))
    return p.parse_args(argv)


def run(cmd, cwd, quiet=True):
    return subprocess.run(cmd, cwd=cwd, text=True,
                          stdout=subprocess.PIPE if quiet else None,
                          stderr=subprocess.STDOUT if quiet else None)


def must(cmd, cwd):
    r = run(cmd, cwd)
    if r.returncode != 0:
        sys.exit("run_mutants: failed: %s\n%s" % (" ".join(cmd), r.stdout))


def test_passes(tree, build, test, jobs):
    """Rebuild @p test and run it; None if the build fails."""
    r = run(["cmake", "--build", build, "-j", jobs, "--target", test], tree)
    if r.returncode != 0:
        return None
    path = os.path.join(build, "tests", test)
    return run([path], tree).returncode == 0


def main(argv):
    args = parse_args(argv)
    with open(args.list) as f:
        mutants = json.load(f)["mutants"]
    if args.only:
        mutants = [m for m in mutants if m["id"].startswith(args.only)]
    if not mutants:
        sys.exit("run_mutants: no mutant selected")
    repo = run(["git", "rev-parse", "--show-toplevel"], HERE).stdout.strip()
    base = args.workdir or tempfile.mkdtemp(prefix="triarch-mutants-")
    tree = os.path.join(base, "tree")
    build = os.path.join(tree, "build-mutants")
    must(["git", "worktree", "add", "--detach", tree, args.ref], repo)
    failed = 0
    try:
        must(["cmake", "-S", tree, "-B", build], tree)
        for test in sorted({m["test"] for m in mutants}):
            if not test_passes(tree, build, test, args.jobs):
                print("FAIL      %s fails (or does not build) unmutated"
                      % test)
                failed += 1
        for m in mutants:
            path = os.path.join(tree, m["file"])
            with open(path) as f:
                text = f.read()
            if text.count(m["find"]) != 1:
                print("FAIL      %s: its text occurs %d times in %s, not once"
                      % (m["id"], text.count(m["find"]), m["file"]))
                failed += 1
                continue
            with open(path, "w") as f:
                f.write(text.replace(m["find"], m["replace"]))
            try:
                passed = test_passes(tree, build, m["test"], args.jobs)
            finally:
                with open(path, "w") as f:
                    f.write(text)
            if passed is None:
                print("FAIL      %s does not build" % m["id"])
                failed += 1
            elif passed:
                print("SURVIVED  %s: %s still passes" % (m["id"], m["test"]))
                failed += 1
            else:
                print("killed    %s by %s" % (m["id"], m["test"]))
    finally:
        run(["git", "worktree", "remove", "--force", tree], repo)
        if args.workdir is None:
            os.rmdir(base)
    print("%d mutants, %d problems" % (len(mutants), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
