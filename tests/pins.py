"""The byte pins: every pinned ``millusion`` output, in one table.

Each row of :data:`PINS` is a pipeline of ``millusion`` stages joined by
``|``, the stream of its last stage that it pins (``out``, ``err``, or
``both``: stdout and stderr in one buffer followed by ``exit N``, as
``2>&1; echo "exit $?"`` gives), what that stream must be, the name of the
first stage's stdin in :data:`INPUTS`, and the last stage's exit code.
Every stage but the last must exit 0.  An expectation that holds a line
end is the stream's exact text; any other is its sha256.  The stages run
beside ``g.txt``, the graph :data:`GRAPH` writes, and ``v.txt``, the
:data:`VALUATION` text.  A new pin is one row.

    python tests/pins.py

replays every row through the ``millusion`` on PATH, each stage its own
process fed the stdout of the one before, with a timeout of
:data:`TIMEOUT_S` seconds a stage, and fails if any row fails; it names
each failing row.  ``tests/test_cli.py`` replays the same rows in
process.  Standard library only, and pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

TIMEOUT_S = 60
# argparse wraps a usage text at the terminal's width, or at this one where
# the COLUMNS variable sets it: the pinned usage texts are laid out at it
COLUMNS = "80"

GRAPH = "gen circulant 12 --offsets 1,3"
VALUATION = "# atoms per node\n0 p q\n1 p\n3 q r  # two\n\n5 p r\n8 q\n11 p q r\n7\n"
INPUTS = {
    "": "",
    # a global tie with isolated red and blue nodes
    "tied": "n 8\ncolors RBRBRBRB\n0 1\n0 2\n1 2\n2 3\n3 4\n4 5\n",
    # the line reader: a comment line, a trailing comment, a blank line, CRLF ends
    "crlf": "# a comment\r\nn 4\r\n0 1  # first edge\r\n1 2\r\n\r\n2 3\r\n",
    "empty": "n 0\n",
}

# shell redirections that pick each stream out, for the rows' names
_REDIRECTS = {"out": "", "err": " 2>&1 >/dev/null", "both": " 2>&1"}


class Pin(NamedTuple):
    pipeline: str
    stream: str  # "out", "err" or "both"
    expect: str  # the exact text where it holds a line end, else its sha256
    stdin: str = ""  # a key of INPUTS
    exit: int = 0

    @property
    def id(self) -> str:
        """The row's name: its pipeline, stdin and stream as a shell would
        pick them out, a word of more than 40 characters shown by its length."""
        words = (w if len(w) <= 40 else f"<{len(w)} characters>" for w in self.pipeline.split(" "))
        stdin = f" < {self.stdin}" if self.stdin else ""
        return f"{' '.join(words)}{stdin}{_REDIRECTS[self.stream]}"


def oracle(graph: str, objective: str, score: int, colors: str, options: str = "") -> Pin:
    """``gen graph | oracle --objective ...``, pinned to its exact answer."""
    text = f"objective {objective}\nscore {score}\ncolors {colors}\n"
    return Pin(f"gen {graph} | oracle --objective {objective}{options}", "out", text)


STRICT, WEAK, MONO = "max-strict-illusion-count", "max-weak-illusion-count", "min-monochromatic"
SEEDED = "gen circulant 3500 --offsets 1,3,7 | color --initial random --seed 7"
ALL_RED = "gen circulant 4000 --offsets 1,3,7 | color"
WITNESS = "construct 20000 50"  # 500 000 edges
MAJORITY = "mc - --preset majority-majority --global"
LONG_DIGITS, LONG_LETTERS = "1" * 5000, "a" * 5000

PINS = [
    # smoke: the installed entry point, the array reader and writer, the JSON
    # edge and node lists at 500 000 edges, and int64 edge keys at 100 000 nodes
    Pin("gen cycle 5 | color | analyze --format json", "out",
        "78186b8b4cf731110b8eb7318115b62aef765b7db2280da8e9ccca93b1cff977"),
    Pin("feasible 12 6", "out", "6ecfb65f33fd76815f8c4296a978bb0689254fcb729d3c62f846840d6c42407d"),
    Pin(f"{WITNESS} | {MAJORITY}", "out", "true\n"),
    Pin(f"{WITNESS} --format json", "out",
        "d2036eccf635fa1454aa69bbc0c58ed16af0b94f6a6dfa0394acadc615c2b424"),
    Pin(f"{WITNESS} | {MAJORITY} --format json", "out",
        "d5cdcd294a74da5d13ac2ba05491d27368c76d1b0346d1992ce636ca10a5e260"),
    Pin(f"construct 100000 50 | {MAJORITY}", "out", "true\n"),
    # the construction witnesses and their stage reports: a dense one
    # (initial, top-up and two circulant stages), a bridging one (short
    # circulant, bridge and both pairings), and the fast one with a degree-0
    # blue circulant
    Pin("construct 2379 96", "out",
        "42c3a9cd03e09a16ad7c716e79dc4235f39ec1fab0e8ea20382f162716d7ccef"),
    Pin("construct 2379 96", "err",
        "fd157f7793cfb2079b5a73869f3147dd9cfcf62fd48e10ba2b4cda957e0d149e"),
    Pin("construct 100000 8", "out",
        "261419947e89562e80b5c46e5eaa21d86313d4cf441283bbb83d5890b3a06a39"),
    Pin("construct 100000 8", "err",
        "28be616b20838e94493d2db444f3cbcf3f5ea7691c7110050afcbfb943e7cc7f"),
    Pin("construct 302 152 --fast", "out",
        "54d5373115dac8b45b3a878e4b2a937c096b67cf028d0a90b6b3803599c3f917"),
    Pin("construct 302 152 --fast", "err",
        "f45ac998305102b3bd5d5cf6e80c1c46c70c53318e3a317d3f207179d0a3dd8f"),
    # both sides of the key width: uint32 edge keys, then int64
    Pin("construct 65535 6", "out",
        "cda2af6a2eb78563b4b2b4d4b0336ac38c7e09993aa194497a60933738bc49ee"),
    Pin("construct 65535 6", "err",
        "d8a02a69e77b023959877acdde5efa7a0d65ff277d388b7fc3563a3eb3ebb09e"),
    Pin("construct 65537 6", "out",
        "313dcb0831fabbd2914392bf9df15abcbe6facf0731c8c1b2e23b4e72f8d97bc"),
    Pin("construct 65537 6", "err",
        "b75e5a81f25c44a3debe8ceb5b2bdaca402d241138a2e5de6b397bb222abf1d7"),
    # the seeded colour pipeline
    Pin(SEEDED, "out", "5d9a7f2d02f5ca929372f19748924d9422b7cddafabbbbff86f9f0156194ae8d"),
    Pin(f"{SEEDED} | analyze --format json --p 1/4 --q 3/4", "out",
        "2cd48d4abffdbf3d30d5a6d4a3b0d8ea8a231fa95d2f639817dd6d642ae7e701"),
    Pin(f"{SEEDED} | analyze", "out",
        "e0c78321039f2243771b8dd3c59bc9dff64be9883e383cce6ea769b0a0b97b24"),
    # the JSON edge lists of color and construct
    Pin(f"{SEEDED} --format json", "out",
        "c99f78d71075bb73bc1e5f05312920b531a9479322a3a6d0d9f41e9dfeabe8a8"),
    Pin("color g.txt --mode weak --format json", "out",
        "c04a40b9237fb20f3982ba6c32c12e74f72f4d3879240dcfae8043c875049e03"),
    Pin("construct 12 6 --format json", "out",
        "bf1693873f5ac9406862c366745cec6ca0c55d03fd59c74075ea90b3d1243590"),
    # smoke: the line reader, and a 0-node graph through color and analyze
    Pin("color | analyze --format json", "out",
        "daf6beb24fc67a1c7e93065f83e90facf751dafe2bc65f1556ce47ad803ac219", "crlf"),
    Pin("color --mode weak | analyze", "out",
        "3b47f87d460754b7e7cbe67324848e53d4bec3ac96c485e834b4889cc720eb3c", "empty"),
    # the all-red swap loop and the status columns at 4000 agents
    Pin(ALL_RED, "out", "c03ab8b73d0e31c314a42b07673ccb62534387df114a1edc2d1df94cd067f4d7"),
    Pin(f"{ALL_RED} | analyze --format json --p 1/4 --q 3/4", "out",
        "10a77d075d3b195ab47c191f3cb364b618449ceea3fe8d2824845861dc039623"),
    # analyze's one-join JSON at 200 000 agents, a document of about 44 MB
    Pin("gen cycle 200000 | color | analyze --format json", "out",
        "ec4ce6d2861745d687046551db7f317d72405c9ce04cd5e6b9769c5ed2af96ba"),
    # the agent classes on a global tie with isolated red and blue nodes
    Pin("analyze", "out",
        "4a7822c15246e202b7116f1570edf1d746a687007a36105a79404be9c8e34894", "tied"),
    Pin("analyze --format json --p 1/2 --q 1/3", "out",
        "a20cb29cf5cb1d1df9d754a9a1bfe13f56d62e56b8d4976a9499b540142d9c4a", "tied"),
    # the all-red swap loop on a long odd cycle
    Pin("gen cycle 9999 | color", "out",
        "c5df7bc7606bb5a3a2fdfed00d63d1847c91ef5e467f7b268599e97fcf59ff7d"),
    # the widest names an 8-byte name word holds: ids up to MAX_NODES - 1
    Pin("gen cycle 262144", "out",
        "0023e3d24e173de879b051475f02859e7d945c7ad52e25e71f840307d9f3bb25"),
    # the swap loop from a random start: 842 swaps, 146 of them to a node
    # below the one before
    Pin("gen circulant 3000 --offsets 1,2,5 | color --initial random --seed 7", "out",
        "9efc53117ec8f0b40bae07fad9b34616460acdb9be66a880ee6b9d9c0ece37c6"),
    # the model checker on a valuation file, the second with the unknown
    # atom's warning on stderr
    Pin("mc g.txt --formula '<>1 (q | r) & ~W p' --global --valuation v.txt --format json", "both",
        "8714210c9de07dfe8bdb25c7e48b11a9665d3d5b5064c519de0cc0c727f4fd5c", exit=1),
    Pin("mc g.txt --formula 'p | s' --node 5 --valuation v.txt --format json", "both",
        "28f700d9ff3df4e206ae17d8a911ae5ab43dab60dcf9b193d5fb4d5ea583ad1e"),
    # the model checker's neighbour counts on the 500 000-edge witness:
    # <>25 p | W p holds at 9999 of the 20 000 nodes
    Pin(f"{WITNESS} | mc - --formula '<>25 p | W p' --global --format json", "both",
        "efad6b1f0b6fff58795fed37c4d75b00bddb4b0bfebf0a768ef0770ed7abaeb0", exit=1),
    # the oracle on the cached neighbour bitsets, and its JSON report on a
    # complete graph
    oracle("cycle 12", STRICT, 4, "BBBRBRBRBRBR"),
    Pin(f"gen complete 8 | oracle --objective {MONO} --format json", "out",
        "c7dcb21a848ea4f919f867fbbdd8cc2be55f883dc33cb4299959b795f24fad55"),
    # the bit-sliced illusion counts and the cut scan at 21 nodes
    oracle("circulant 21 --offsets 1,4", STRICT, 10, "BBBBBBBRBRBRRRRRRBRBR"),
    oracle("circulant 21 --offsets 1,4", WEAK, 19, "BBBBBBRRRRRBBBBBRRRRR"),
    oracle("circulant 21 --offsets 1,4", MONO, 6, "BBRBRBBRBRRBRBBRBRRBR"),
    # the same at even n: a strict optimum beside a global tie, and at the cap
    oracle("circulant 20 --offsets 10", STRICT, 9, "BBBBBBBBBBBRRRRRRRRR"),
    oracle("circulant 20 --offsets 10", WEAK, 20, "BBBBBBBBBBRRRRRRRRRR"),
    oracle("circulant 20 --offsets 10", MONO, 0, "BBBBBBBBBBRRRRRRRRRR"),
    oracle("circulant 22 --offsets 1,2,5", STRICT, 10, "BBBBBBBBBBRBRRRRRRRRBR"),  # eight blocks
    oracle("circulant 22 --offsets 1,2,5", WEAK, 22, "BBBBBBBBBRBRRRRRRRRRBR"),
    oracle("circulant 22 --offsets 1,2,5", MONO, 18, "BBRBBRBBRBBRBBRBBRRBRR"),
    # the illusion counts on both sides of the 16-node crossover: bit-sliced
    # at 16 nodes, the byte scan below
    oracle("circulant 16 --offsets 1,3", STRICT, 8, "BBBRBRBRBBBRBRBR"),
    oracle("circulant 16 --offsets 1,3", WEAK, 16, "BBBRBRBRBRBRBRRR"),
    oracle("circulant 14 --offsets 1,2,5", STRICT, 6, "BBBRBBRRBRRBBR"),
    oracle("circulant 14 --offsets 1,2,5", WEAK, 14, "BRBRBRBRBRBRBR"),
    oracle("complete 10", STRICT, 0, "BBBBBBBBBB"),
    oracle("complete 10", WEAK, 10, "BBBBBRRRRR"),
    # the cut scan's fewest monochromatic edges at even and odd n, and a mask
    # above 2^24, red nodes past the default cap's 22
    oracle("circulant 16 --offsets 1,2,5", MONO, 12, "BBRBBRBBRBBRRBRR"),
    oracle("circulant 14 --offsets 1,2,5", MONO, 10, "BBRBBRRBBRBBRR"),
    oracle("circulant 13 --offsets 1,3", MONO, 4, "BBRBRBRBRBRBR"),
    oracle("cycle 26", MONO, 0, "BR" * 13, " --cap 26"),
    # the byte scan's illusion optima at 8 nodes or fewer, odd and even n
    # (tied columns at even n)
    oracle("cycle 7", STRICT, 2, "BBRBRBR"),
    oracle("cycle 7", WEAK, 6, "BBRBBRR"),
    oracle("circulant 8 --offsets 1,3", STRICT, 4, "BBBRBRBR"),
    oracle("circulant 8 --offsets 1,3", WEAK, 8, "BBBRBRRR"),
    oracle("cycle 8", STRICT, 2, "BBBRBRBR"),
    oracle("cycle 8", WEAK, 8, "BRBRBRBR"),
    # strict optima beside a global tie: the byte scan at 8 nodes and at 14
    # with an 8-6 split, then the bit-sliced scan
    oracle("complete 8", STRICT, 0, "BBBBBBBB"),
    oracle("circulant 8 --offsets 4", STRICT, 3, "BBBBBRRR"),
    oracle("circulant 14 --offsets 7", STRICT, 6, "BBBBBBBBRRRRRR"),
    oracle("complete 16", STRICT, 0, "BBBBBBBBBBBBBBBB"),
    oracle("circulant 16 --offsets 8", STRICT, 7, "BBBBBBBBBRRRRRRR"),
    # a refused argument of thousands of characters is quoted by its first 20
    # and its length, in argparse's own messages too
    Pin(f"construct 10 {LONG_DIGITS}", "err",
        "usage: millusion construct [-h] [--fast] [--format {text,json}] n k\n"
        "millusion construct: error: argument k: invalid int value: "
        "'11111111111111111111'... (5000 characters)\n", exit=2),
    Pin(f"oracle --objective {LONG_LETTERS}", "err",
        "usage: millusion oracle [-h]\n"
        "                        [--objective {max-strict-illusion-count,"
        "max-weak-illusion-count,min-monochromatic}]\n"
        "                        [--cap CAP] [--format {text,json}]\n"
        "                        [file]\n"
        "millusion oracle: error: argument --objective: invalid choice: "
        "'aaaaaaaaaaaaaaaaaaaa'... (5000 characters) (choose from "
        "'max-strict-illusion-count', 'max-weak-illusion-count', 'min-monochromatic')\n", exit=2),
]


def stages(pipeline: str) -> list[list[str]]:
    """The argument lists of ``pipeline``'s stages, split as a shell does."""
    words = shlex.split(pipeline)
    return [list(group) for bar, group in itertools.groupby(words, "|".__eq__) if not bar]


def verdict(pin: Pin, code: int, out: bytes, err: bytes) -> str | None:
    """``None`` where the last stage's exit code and streams (its stdout
    holding its stderr too for a ``both`` pin) match ``pin``; else what
    differs."""
    if code != pin.exit:
        return f"exit {code}, not {pin.exit}"
    data = {"out": out, "err": err, "both": out + b"exit %d\n" % code}[pin.stream]
    got = data.decode(errors="replace") if "\n" in pin.expect else hashlib.sha256(data).hexdigest()
    return None if got == pin.expect else f"{pin.stream} reads {got!r}"


def replay(pin: Pin, work: Path) -> str | None:
    """Run ``pin``'s stages through the installed ``millusion`` in ``work``:
    ``None`` where it holds, else why not."""
    data = INPUTS[pin.stdin].encode()
    argvs = stages(pin.pipeline)
    for i, argv in enumerate(argvs, 1):
        merged = pin.stream == "both" and i == len(argvs)
        try:
            done = subprocess.run(
                ["millusion", *argv], input=data, cwd=work, timeout=TIMEOUT_S,
                env={**os.environ, "COLUMNS": COLUMNS},
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT if merged else subprocess.PIPE,
            )
        except subprocess.TimeoutExpired:
            return f"stage {i} ran past {TIMEOUT_S} s"
        if i < len(argvs) and done.returncode:
            why = done.stderr.decode(errors="replace").strip()
            return f"stage {i} exited {done.returncode}: {why}"
        data = done.stdout
    return verdict(pin, done.returncode, done.stdout, done.stderr or b"")


def main() -> int:
    if shutil.which("millusion") is None:
        print("no millusion on PATH", file=sys.stderr)
        return 2
    failed = []
    with tempfile.TemporaryDirectory(prefix="pins-") as tmp:
        work = Path(tmp)
        graph = subprocess.run(["millusion", *stages(GRAPH)[0]], capture_output=True, check=True)
        (work / "g.txt").write_bytes(graph.stdout)
        (work / "v.txt").write_bytes(VALUATION.encode())
        for pin in PINS:
            start = time.perf_counter()
            why = replay(pin, work)
            mark = "ok" if why is None else "FAILED"
            print(f"{mark:<6} {time.perf_counter() - start:5.2f} s  {pin.id}", flush=True)
            if why is not None:
                failed.append(pin)
                print(f"       {why}", flush=True)
    print(f"{len(PINS) - len(failed)} of {len(PINS)} pins hold")
    for pin in failed:
        print(f"failed: {pin.id}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
