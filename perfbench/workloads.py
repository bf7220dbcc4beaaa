"""Seeded operation streams for the three benchmark workloads.

Every operation is a ``digitseq`` argv list.  Operation ``i`` of a workload
is a pure function of ``(seed, i)``, so a run can stop anywhere in the
stream and any prefix is reproducible.

Commands are interleaved round-robin.  The parameters that set an
operation's cost follow a stratified design that is the same for every
seed, so two seeds give runs of the same cost shape and the run-to-run
spread of the timings stays small:

- a continuous parameter is drawn uniformly (a size log-uniformly) inside
  one of at least 128 equal strata of its range; operation j of a command
  takes the stratum given by the radical inverse of j (base 2 for the first
  parameter, base 3 for the second), so every prefix of the stream covers
  the range evenly;
- a categorical parameter cycles with j, over a cycle length coprime to the
  strata (3 or 5 options), or follows the Thue-Morse bit of j (2 options).

The seed draws the position inside each stratum and the parameters that do
not change the cost (moduli, residue targets, the point-set seed of
et-audit).
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0

PS_COMMANDS = ("tm-density", "joint-residues", "zeck-residues")
# 3/2, 4/3 and 9/7 have exact ties at perfect squares, cubes and 7th powers,
# which escalate to the exact path; 7/5 rarely and 71/50 almost never do.
PS_EXPONENTS = ("3/2", "4/3", "9/7", "7/5", "71/50")
JOINT_BASES = ((2, 3), (3, 4), (4, 5))
PS_LOG2_SIZE = (16.0, 21.0)

EXPSUM_COMMANDS = ("rho", "estimate-j", "fourier-audit", "et-audit")
RHO_LAMBDA = (12, 13, 14, 15, 16)

BEATTY_COMMANDS = ("deviation", "estimate-i", "beatty-mismatch", "audit-thm1")
F_POWERS = ("3/2", "5/4")
# audit-thm1 at scale 10**6 takes about a minute; keep every scale <= 2**15.
BEATTY_LOG2_SCALE = (12.0, 15.0)

def _radical_inverse(j: int, base: int) -> float:
    x, f = 0.0, 1.0 / base
    while j:
        j, d = divmod(j, base)
        x += d * f
        f /= base
    return x


def _rng(seed: int, workload: str, *key) -> random.Random:
    return random.Random(":".join(map(str, (seed, workload) + key)))


def _strata(base: int) -> int:
    n = base
    while n < 128:
        n *= base
    return n


def _point(rnd: random.Random, j: int, dims: int) -> list[float]:
    """Stratified uniforms in [0, 1), one per dimension (bases 2 and 3)."""
    return [(_radical_inverse(j, b) + rnd.random() / _strata(b)) % 1.0 for b in (2, 3)[:dims]]


def _thue_morse(j: int) -> int:
    return bin(j).count("1") % 2


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(2.0 ** (lo + (hi - lo) * u)))


def _pick(options: tuple, u: float):
    return options[min(len(options) - 1, int(len(options) * u))]


def _coprime_modulus(rnd: random.Random, q: int) -> int:
    return rnd.choice([m for m in range(2, 7) if math.gcd(m, q - 1) == 1])


def _ps_op(seed: int, i: int) -> list[str]:
    w = "ps-residues"
    cmd = PS_COMMANDS[i % len(PS_COMMANDS)]
    j = i // len(PS_COMMANDS)
    rnd = _rng(seed, w, "op", i)
    (u,) = _point(rnd, j, 1)
    size = str(_log_uniform(u, *PS_LOG2_SIZE))
    c = PS_EXPONENTS[j % len(PS_EXPONENTS)]
    if cmd == "tm-density":
        return [cmd, "--c", c, "--n", size, "--checkpoints", str(rnd.randint(6, 12))]
    if cmd == "joint-residues":
        q1, q2 = JOINT_BASES[j % len(JOINT_BASES)]
        m1, m2 = _coprime_modulus(rnd, q1), _coprime_modulus(rnd, q2)
        return [cmd, "--c", c, "--q1", str(q1), "--q2", str(q2), "--m1", str(m1),
                "--m2", str(m2), "--l1", str(rnd.randrange(m1)), "--l2", str(rnd.randrange(m2)),
                "--x", size]
    m = rnd.randint(2, 6)
    return [cmd, "--c", c, "--m", str(m), "--a", str(rnd.randrange(m)), "--x", size]


def _expsum_op(seed: int, i: int) -> list[str]:
    w = "expsum-audits"
    cmd = EXPSUM_COMMANDS[i % len(EXPSUM_COMMANDS)]
    j = i // len(EXPSUM_COMMANDS)
    rnd = _rng(seed, w, "op", i)
    u, v = _point(rnd, j, 2)
    if cmd == "rho":
        return [cmd, "--lambda-max", str(RHO_LAMBDA[j % len(RHO_LAMBDA)])]
    if cmd == "estimate-j":
        return [cmd, "--f-power", F_POWERS[_thue_morse(j)],
                "--scale", str(_log_uniform(u, *BEATTY_LOG2_SCALE)),
                "--z", str(_log_uniform(v, 5.0, 8.0)),
                "--theta-grid", str((8, 12, 16)[j % 3]), "--x-samples", "4"]
    if cmd == "fourier-audit":
        return [cmd, "--q-list", ("2,3", "2,3,5", "3,5")[j % 3],
                "--lambda-max", str(_pick((4, 5, 6), u)),
                "--alpha-grid", str(_pick((8, 12, 16), v))]
    return [cmd, "--sets", "150", "--h", str(_log_uniform(u, 4.0, 6.0)),
            "--seed", str(rnd.randrange(1 << 30)),
            "--max-points", str(_log_uniform(v, 8.0, 11.0))]


def _beatty_op(seed: int, i: int) -> list[str]:
    w = "beatty-substitution"
    cmd = BEATTY_COMMANDS[i % len(BEATTY_COMMANDS)]
    j = i // len(BEATTY_COMMANDS)
    u, v = _point(_rng(seed, w, "op", i), j, 2)
    fp = F_POWERS[_thue_morse(j)]
    scale = _log_uniform(u, *BEATTY_LOG2_SCALE)
    if cmd == "deviation":
        return [cmd, "--f-power", fp, "--scale", str(scale)]
    if cmd == "estimate-i":
        return [cmd, "--f-power", fp, "--scale", str(scale),
                "--window", str(_log_uniform(v, 4.0, 6.0)),
                "--alpha-grid", "8", "--beta-samples", "4"]
    if cmd == "beatty-mismatch":
        return [cmd, "--f-power", fp, "--a", str(scale),
                "--b", str(scale + _log_uniform(v, 10.0, 13.0))]
    return [cmd, "--f-power", fp, "--scale", str(scale),
            "--z", str(_log_uniform(v, 5.0, 7.0)),
            "--theta-grid", "8", "--x-samples", "4"]


_MAKERS = {"ps-residues": _ps_op, "expsum-audits": _expsum_op,
           "beatty-substitution": _beatty_op}
WORKLOADS = tuple(_MAKERS)


def operation(workload: str, seed: int, i: int) -> list[str]:
    """argv of operation ``i`` (without the common ``--threads 1``)."""
    return _MAKERS[workload](seed, i)


def warmup_ops(workload: str) -> list[list[str]]:
    """One operation of each kind at the smallest size of the workload."""
    if workload == "ps-residues":
        return [["tm-density", "--c", "3/2", "--n", "65536"],
                ["joint-residues", "--c", "3/2", "--q1", "2", "--q2", "3", "--m1", "2",
                 "--m2", "3", "--x", "65536"],
                ["zeck-residues", "--c", "3/2", "--m", "3", "--x", "65536"]]
    if workload == "expsum-audits":
        return [["rho", "--lambda-max", "12"],
                ["estimate-j", "--f-power", "3/2", "--scale", "4096", "--z", "32",
                 "--theta-grid", "8", "--x-samples", "4"],
                ["fourier-audit", "--q-list", "2,3", "--lambda-max", "4", "--alpha-grid", "8"],
                ["et-audit", "--sets", "150", "--h", "16", "--seed", "0", "--max-points", "256"]]
    return [["deviation", "--f-power", "3/2", "--scale", "4096"],
            ["estimate-i", "--f-power", "3/2", "--scale", "4096", "--window", "16",
             "--alpha-grid", "8", "--beta-samples", "4"],
            ["beatty-mismatch", "--f-power", "3/2", "--a", "4096", "--b", "5120"],
            ["audit-thm1", "--f-power", "3/2", "--scale", "4096", "--z", "32",
             "--theta-grid", "8", "--x-samples", "4"]]


def with_threads(argv: list[str], threads: int) -> list[str]:
    return list(argv) + ["--threads", str(threads)]


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _num(text: str) -> float:
    return float(text) if text else math.nan


def invariant_errors(argv: list[str], status: int, csv_text: str) -> list[str]:
    """Checks that hold for the report of any operation on any seed."""
    if status != 0:
        return [f"exit status {status}"]
    lines = csv_text.splitlines()
    if not lines:
        return ["empty report"]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    cmd = argv[0]
    errors: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    if cmd == "tm-density":
        n = int(_arg(argv, "--n"))
        for r in rows:
            m, s = int(r["checkpoint"]), int(r["partial_sum"])
            need(abs(s) <= m and (m + s) % 2 == 0, f"partial sum {s} impossible at {m}")
        need(bool(rows) and int(rows[-1]["checkpoint"]) == n, "last checkpoint is not n")
    elif cmd in ("joint-residues", "zeck-residues"):
        x = int(_arg(argv, "--x"))
        cells = [r for r in rows if r[header[0]] != "total"]
        moduli = ([int(_arg(argv, "--m1")), int(_arg(argv, "--m2"))]
                  if cmd == "joint-residues" else [int(_arg(argv, "--m"))])
        need(len(cells) == math.prod(moduli), "wrong number of residue cells")
        need(sum(int(r["count"]) for r in cells) == x, "residue counts do not sum to x")
        need(rows[-1][header[0]] == "total" and int(rows[-1]["count"]) == x, "total row is not x")
    elif cmd == "rho":
        lam = int(_arg(argv, "--lambda-max"))
        need([int(r["lambda"]) for r in rows] == list(range(lam + 1)), "wrong lambda rows")
        need(all(0.0 < _num(r["integral"]) <= 1.0 for r in rows), "integral outside (0, 1]")
    elif cmd in ("estimate-j", "estimate-i"):
        need(len(rows) == 1 and math.isfinite(_num(rows[0]["value"]))
             and _num(rows[0]["value"]) >= 0.0, "estimate is not a finite value >= 0")
    elif cmd == "fourier-audit":
        qs = _arg(argv, "--q-list").split(",")
        expect = len(qs) * (int(_arg(argv, "--lambda-max")) + 1) * int(_arg(argv, "--alpha-grid"))
        need(len(rows) == expect, "wrong number of audit rows")
        need(all(r["violations"] == "0" for r in rows), "coefficient bound violated")
    elif cmd == "et-audit":
        need(len(rows) == int(_arg(argv, "--sets")), "wrong number of point sets")
        need(all(r["ok"] == "true" for r in rows), "discrepancy above the bound")
    elif cmd == "deviation":
        need(len(rows) == 1 and rows[0]["A"] == _arg(argv, "--scale")
             and math.isfinite(_num(rows[0]["lhs_per_A"])), "bad deviation row")
    elif cmd == "beatty-mismatch":
        a, b = int(_arg(argv, "--a")), int(_arg(argv, "--b"))
        need(len(rows) == 1 and 0 <= int(rows[0]["mismatch_count"]) <= b - a,
             "mismatch count outside [0, b - a]")
    elif cmd == "audit-thm1":
        need(len(rows) == 1 and rows[0]["A"] == _arg(argv, "--scale")
             and all(math.isfinite(_num(rows[0][k])) for k in ("lhs_per_A", "bracket")),
             "bad audit row")
    return errors
