#!/usr/bin/env python3
"""Split the samples of tools/prof/sampler.c into time per function.

    python3 tools/prof/report.py [--cmdline TEXT] [--top N]
                                 [--focus FUNC] [--inside FUNC] FILE...

Each FILE is one process's uscope-prof.<pid>.txt.  Their samples are
pooled (only the processes whose command line contains TEXT, with
--cmdline) and symbolized with addr2line, inlined frames included, so
a function the compiler inlined into its caller still gets its time.
The report lists the top N functions by inclusive time (samples with
the function anywhere on the stack) and by self time (samples with it
innermost), as shares of all pooled samples.  --focus FUNC keeps only
the samples with FUNC on the stack, to see where its time goes, while
the shares stay of all samples.  --inside FUNC adds the
share of samples with FUNC on the stack and the share without it,
FUNC being a substring of the demangled name (e.g. Machine::tick).
"""

import argparse
import collections
import subprocess
import sys


def load(path):
    """(cmdline, [(start, end, offset, file)], [[addr, ...], ...])."""
    cmdline = ""
    maps = []
    samples = []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "cmdline":
                cmdline = rest
            elif kind == "map":
                fields = rest.split()
                if len(fields) < 6:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif kind == "sample":
                samples.append([int(x, 16) for x in rest.split()])
    return cmdline, maps, samples


def locate(maps, addr):
    for lo, hi, offset, path in maps:
        if lo <= addr < hi:
            return path, addr - lo + offset
    return None, None


def symbolize(requests):
    """{(file, offset): [innermost function, ..., outermost]}."""
    by_file = collections.defaultdict(set)
    for path, offset in requests:
        by_file[path].add(offset)
    names = {}
    for path, offsets in by_file.items():
        offsets = sorted(offsets)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path]
            + ["%x" % o for o in offsets],
            capture_output=True, text=True).stdout.splitlines()
        # -a starts each address's group with the address itself; then
        # come (function, file:line) pairs, innermost inline first.
        current = None
        i = 0
        while i < len(out):
            if out[i].startswith("0x"):
                current = (path, int(out[i], 16))
                names[current] = []
                i += 1
                continue
            if current is not None:
                names[current].append(out[i])
            i += 2
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--cmdline", default="")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--focus", default="")
    parser.add_argument("--inside", action="append", default=[])
    args = parser.parse_args()

    stacks = []  # per sample: [(file, offset) or None, ...], leaf first
    for path in args.files:
        cmdline, maps, samples = load(path)
        if args.cmdline not in cmdline:
            continue
        for sample in samples:
            frames = []
            for depth, addr in enumerate(sample):
                # A return address points past its call instruction.
                frames.append(locate(maps, addr if depth == 0 else addr - 1))
            stacks.append(frames)
    if not stacks:
        print("no samples", file=sys.stderr)
        return 1

    names = symbolize({f for frames in stacks for f in frames if f[0]})
    inclusive = collections.Counter()
    self_time = collections.Counter()
    expanded = []
    for frames in stacks:
        funcs = []
        for f in frames:
            funcs.extend(names.get(f, ["??"]) if f[0] else ["??"])
        expanded.append(funcs)
        if args.focus and not any(args.focus in f for f in funcs):
            continue
        self_time[funcs[0]] += 1
        for func in set(funcs):
            inclusive[func] += 1

    total = len(stacks)
    print("%d samples from %d file(s)" % (total, len(args.files)))
    for title, counter in (("inclusive", inclusive), ("self", self_time)):
        print("\n%-9s  share  function" % title)
        for func, n in counter.most_common(args.top):
            print("%9d  %5.1f%%  %s" % (n, 100.0 * n / total, func[:110]))
    for pattern in args.inside:
        n = sum(1 for funcs in expanded if any(pattern in f for f in funcs))
        print("\ninside %s: %d samples, %.1f%%; outside: %.1f%%"
              % (pattern, n, 100.0 * n / total, 100.0 * (total - n) / total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
