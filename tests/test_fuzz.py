"""Fuzz: random byte strings and mutated valid CSVs through every data
subcommand, in process through main().

A seeded generator makes each case: a panel file of random bytes, of
random CSV-like text, or a valid panel with a few mutations (a flipped
byte, a cell swapped for an awkward value, a line repeated, dropped or
cut short, the header changed); some cases also mutate the adoption
schedule. The value cases keep every line well formed and make the values
awkward instead, so that most of them reach the estimators: outcomes of
1e-320 or 1e300 or signed zeros, or all equal; a unit with no observed
outcome; a period only one unit observes; periods near the int64 ends or
with gaps; a treatment that switches off. Each case runs under every data
subcommand, with the treatment column and with the schedule (under both
--treat-from values), clustered by unit or not by turns. Every invocation is valid usage, so it must exit 0
or 1, raise nothing, print no traceback, and on exit 1 print exactly one
`error:` line (validate's verdict on an invalid panel is exit 1 with the
report and no error line).
"""

import json
import random

import pytest

from twfediag.cli import main

CASES = 120  # structural cases
VALUE_CASES = 60  # value cases, seeds CASES onward
HEADER = b"unit,period,outcome,treated"
AWKWARD = [
    b"", b" ", b"nan", b"inf", b"-inf", b"1e999", b"-1e308", b"1e-320", b"0x10", b"1_000",
    b"never", b"NEVER", b"2", b"-1", b"0.5", b"1.0", b"9" * 25, b"-9223372036854775809",
    b"9223372036854775807", b'"', b'"a,b"', b"\xef\xbb\xbf", b"\xff", b"\x00", b"\r", b"u0",
]
COMMANDS = {
    "estimate": ["--out", "estimate.json", "--no-timestamp"],
    "weights": ["--out-hist", "hist.csv", "--out-grid", "grid.csv"],
    "scatter": ["--out-prefix", "scatter"],
    "sweep-endyear": ["--out", "sweep.csv"],
    "sweep-horizon": ["--horizons", "0,1,3", "--out", "sweep.csv"],
    "jackknife": ["--out", "sweep.csv"],
    "validate": ["--out", "validate.json"],
}
CLUSTERED = {"estimate", "sweep-endyear", "sweep-horizon", "jackknife"}


def _valid(rng: random.Random) -> tuple[list[bytes], list[bytes]]:
    """(panel lines, schedule lines) of a small staggered panel."""
    n_units, n_periods = rng.randint(2, 6), rng.randint(2, 6)
    adoption = {f"u{i}": rng.choice([None, *range(1, n_periods + 2)]) for i in range(n_units)}
    panel = [HEADER]
    for unit, start in adoption.items():
        for period in range(1, n_periods + 1):
            treated = int(start is not None and period >= start)
            outcome = "" if rng.random() < 0.1 else repr(round(rng.gauss(0, 5) + 2 * treated, 3))
            panel.append(f"{unit},{period},{outcome},{treated}".encode())
    schedule = [b"unit,adoption_period"]
    schedule += [f"{u},{'never' if a is None else a}".encode() for u, a in adoption.items()]
    return panel, schedule


def _mutated(rng: random.Random, lines: list[bytes]) -> bytes:
    lines = list(lines)
    for _ in range(rng.choice([1, 1, 2, 3])):
        i = rng.randrange(len(lines))
        kind = rng.randrange(6)
        if kind == 0:  # flip one byte
            line = bytearray(lines[i] or b"x")
            line[rng.randrange(len(line))] = rng.randrange(256)
            lines[i] = bytes(line)
        elif kind == 1:  # one cell becomes an awkward value
            cells = lines[i].split(b",")
            cells[rng.randrange(len(cells))] = rng.choice(AWKWARD)
            lines[i] = b",".join(cells)
        elif kind == 2:  # a line repeated
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif kind == 3 and len(lines) > 1:  # a line dropped
            del lines[i]
        elif kind == 4:  # a line cut short
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        else:  # a cell added or removed
            cells = lines[i].split(b",")
            if rng.random() < 0.5:
                cells.insert(rng.randrange(len(cells) + 1), rng.choice(AWKWARD))
            elif len(cells) > 1:
                del cells[rng.randrange(len(cells))]
            lines[i] = b",".join(cells)
    ending = rng.choice([b"\n", b"\r\n", b"\r"])
    return ending.join(lines) + rng.choice([ending, b""])


def _values(rng: random.Random) -> tuple[bytes, bytes]:
    """(panel file, schedule file) bytes of a well-formed staggered panel
    with some of the awkward values."""
    n_units, n_periods = rng.randint(2, 6), rng.randint(2, 7)
    step = rng.choice([1, 1, 2, 7, 2**40])
    first = rng.choice([1, 1990, -2**63, 2**63 - 1 - step * (n_periods + 1), -2**62, 2**62])
    periods = [first + step * t + rng.choice([0, 0, 0, step // 2]) for t in range(n_periods)]
    adoption = {f"u{i}": rng.choice([None, *periods, periods[-1] + 1]) for i in range(n_units)}
    scale = rng.choice([1.0, 1.0, 1e-320, 1e300, 0.0])
    constant = rng.random() < 0.2  # every outcome equal
    unobserved = rng.choice([None, *adoption]) if rng.random() < 0.3 else None
    rows = [(u, t, int(a is not None and t >= a)) for u, a in adoption.items() for t in periods]
    if rng.random() < 0.3:  # one more period, observed by one unit only
        unit = rng.choice(list(adoption))
        rows.append((unit, periods[-1] + step, int(adoption[unit] is not None)))
    if rng.random() < 0.2:  # a cell after adoption switches treatment off
        after = [i for i, (u, t, d) in enumerate(rows) if d and t > adoption[u]]
        if after:
            i = rng.choice(after)
            rows[i] = (*rows[i][:2], 0)
    panel = [HEADER]
    for unit, period, treated in rows:
        value = 1.0 if constant else rng.gauss(0, 5) + 2 * treated
        if scale == 0.0:
            outcome = rng.choice(["0.0", "-0.0", "0", "-0"])
        else:
            outcome = repr(value * scale)
        if unit == unobserved or rng.random() < 0.05:
            outcome = ""
        panel.append(f"{unit},{period},{outcome},{treated}".encode())
    schedule = [b"unit,adoption_period"]
    schedule += [f"{u},{'never' if a is None else a}".encode() for u, a in adoption.items()]
    return b"\n".join(panel) + b"\n", b"\n".join(schedule) + b"\n"


def _case(seed: int) -> tuple[bytes, bytes]:
    """(panel file, schedule file) bytes of fuzz case `seed`."""
    rng = random.Random(seed)
    if seed >= CASES:
        return _values(rng)
    panel, schedule = _valid(rng)
    kind = seed % 4
    if kind == 0:  # random bytes after a valid header, or none at all
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        data = (HEADER + b"\n" if rng.random() < 0.7 else b"") + body
    elif kind == 1:  # random text over the CSV alphabet
        alphabet = b"u0123456789,.-\n\r\" eE"
        body = bytes(rng.choice(alphabet) for _ in range(rng.randrange(300)))
        data = HEADER + b"\n" + body
    else:
        data = _mutated(rng, panel)
    sched = _mutated(rng, schedule) if kind == 3 else b"\n".join(schedule) + b"\n"
    return data, sched


def _invocations(tmp_path, command: str, seed: int):
    """The command with the treatment column, with the schedule, and with
    the schedule under --treat-from next-year; the commands that report
    inference cluster by unit in even cases."""
    data = ["--data", str(tmp_path / "panel.csv"), "--unit", "unit", "--time", "period",
            "--outcome", "outcome"]
    outputs = [str(tmp_path / a) if a.endswith((".csv", ".json")) or a == "scatter" else a
               for a in COMMANDS[command]]
    cluster = ["--cluster", ("unit", "none")[seed % 2]] if command in CLUSTERED else []
    schedule = ["--adoption", str(tmp_path / "schedule.csv")]
    for treatment in (["--treatment", "treated"], schedule, [*schedule, "--treat-from", "next-year"]):
        yield [command, *data, *treatment, *cluster, *outputs]


@pytest.mark.parametrize("seed", range(CASES + VALUE_CASES))
def test_exit_code_and_one_error_line(tmp_path, capsys, seed):
    data, schedule = _case(seed)
    (tmp_path / "panel.csv").write_bytes(data)
    (tmp_path / "schedule.csv").write_bytes(schedule)
    for command in COMMANDS:
        for argv in _invocations(tmp_path, command, seed):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            where = f"case {seed}: {' '.join(argv)}"
            assert code in (0, 1), where
            assert "Traceback" not in err, where
            errors = [line for line in err.splitlines() if "error:" in line]
            if code == 0:
                assert errors == [], where
            elif command == "validate" and not errors:
                report = json.loads((tmp_path / "validate.json").read_text(encoding="utf-8"))
                assert report["is_valid"] is False, where
            else:
                assert len(errors) == 1, (where, err)
