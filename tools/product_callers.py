#!/usr/bin/env python3
"""Check that every src/ function has a caller in a product binary.

    python3 tools/product_callers.py [--build-dir DIR] [--jobs N]
    python3 tools/product_callers.py compare LIBRARY REACHED ALLOWLIST

The first form builds the product binaries of this checkout with
-O0 -ffunction-sections -fdata-sections and links them with
-Wl,--gc-sections: every example and bench, the end-to-end
benchmark's e2e_driver, and an EHPSIM_RACE=ON ehpsim_cli (the only
binary that reaches race::). At -O0 nothing is inlined and the
linker drops every function that no binary reaches from its main, so
a function of src/*/*.a that no binary keeps has no product caller.
It writes both symbol listings into the build directory (default
build-callers/), then compares them.

The comparison, the second form on its own, reads the out-of-line
ehpsim:: functions of the src/ libraries (LIBRARY) and of the
product binaries (REACHED), one demangled name a line, and fails
(exit 1) when
  - a library function is in no product binary and not on ALLOWLIST;
  - an ALLOWLIST entry is stale: its function no longer exists, or a
    product binary now reaches it.
An ALLOWLIST line is `qualified::name  # reason`; '#' lines are
comments. A name carries no parameter list, so it covers every
overload of that name.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "product_callers.allow")

BUILD_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def function_key(name):
    """Qualified name of a demangled symbol, without parameters."""
    name = re.sub(r"\[abi:[^\]]*\]", "", name)
    depth = 0
    i = 0
    while i < len(name):
        if name.startswith("(anonymous namespace)", i):
            i += len("(anonymous namespace)")
            continue
        if name.startswith("operator", i) and (
                i == 0 or name[i - 1] == ":"):
            # The operator's own token may be "()", "<" or "<<".
            m = re.match(r"operator\s*(\(\)|[^\s(]+|)", name[i:])
            i += m.end()
            continue
        c = name[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            return name[:i]
        i += 1
    return name


def read_listing(path):
    with open(path) as f:
        return {line.strip() for line in f if line.strip()}


def read_allowlist(path):
    """Map each allowlisted name to its reason."""
    entries = {}
    problems = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            name, reason = name.strip(), reason.strip()
            if not reason:
                problems.append(f"{path}:{n}: {name}: no reason given")
            entries[name] = reason
    return entries, problems


def compare(library, reached, allowlist):
    """Return the problems found; an empty list passes."""
    allowed, problems = read_allowlist(allowlist)
    lib_keys = {function_key(s) for s in library}
    unreached = {function_key(s) for s in library - reached}
    for key in sorted(unreached - allowed.keys()):
        problems.append(f"{key}: in no product binary (delete it, "
                        "give it a product caller, or allowlist it "
                        "with a reason)")
    for key in sorted(allowed.keys() - unreached):
        why = ("no longer in src/" if key not in lib_keys
               else "now reached by a product binary")
        problems.append(f"{key}: stale allowlist entry, {why}")
    return problems, len(library), len(library - reached)


def nm_functions(paths):
    out = subprocess.run(["nm", "-C", "--defined-only", *paths],
                         check=True, capture_output=True,
                         text=True).stdout
    names = set()
    for line in out.splitlines():
        # Out-of-line functions only (T): file-local ones (t) and the
        # weak copies (W) of inline functions and templates are not
        # part of a library's interface.
        parts = line.split(maxsplit=2)
        if (len(parts) == 3 and parts[1] == "T"
                and parts[2].startswith("ehpsim::")):
            names.add(parts[2])
    return names


def run(cmd):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def build(src, build_dir, targets, jobs, extra=()):
    run(["cmake", "-S", src, "-B", build_dir, *BUILD_FLAGS, *extra])
    run(["cmake", "--build", build_dir, "-j", str(jobs),
         "--target", *targets])


def stems(pattern):
    return sorted(os.path.splitext(os.path.basename(p))[0]
                  for p in glob.glob(os.path.join(ROOT, pattern)))


def measure(build_dir, jobs):
    """Build the product binaries; write and return both listings."""
    examples, benches = stems("examples/*.cpp"), stems("bench/*.cc")
    main = os.path.join(build_dir, "main")
    e2e = os.path.join(build_dir, "e2ebench")
    race = os.path.join(build_dir, "race")
    build(ROOT, main, examples + benches, jobs)
    build(os.path.join(ROOT, "e2ebench"), e2e, ["e2e_driver"], jobs)
    build(ROOT, race, ["ehpsim_cli"], jobs, ["-DEHPSIM_RACE=ON"])

    library = nm_functions(sorted(glob.glob(
        os.path.join(main, "src", "*", "*.a"))))
    binaries = ([os.path.join(main, "examples", e) for e in examples]
                + [os.path.join(main, "bench", b) for b in benches]
                + [os.path.join(e2e, "e2e_driver"),
                   os.path.join(race, "examples", "ehpsim_cli")])
    reached = nm_functions(binaries)
    for name, names in (("library.txt", library),
                        ("reached.txt", reached)):
        with open(os.path.join(build_dir, name), "w") as f:
            f.writelines(s + "\n" for s in sorted(names))
    return library, reached


def report(problems, functions, unreached):
    print(f"product_callers: {functions} src/ functions, {unreached} in "
          f"no product binary")
    for p in problems:
        print(f"product_callers: FAIL {p}")
    if not problems:
        print("product_callers: PASS")
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 4:
            sys.exit(__doc__)
        library, reached = read_listing(argv[1]), read_listing(argv[2])
        return report(*compare(library, reached, argv[3]))
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-callers"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count())
    args = parser.parse_args(argv)
    library, reached = measure(os.path.abspath(args.build_dir),
                               args.jobs)
    return report(*compare(library, reached, ALLOWLIST))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
