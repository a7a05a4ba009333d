from __future__ import annotations

import random
from dataclasses import replace

import pytest

from qcongest import twoparty
from qcongest.engine import EngineError
from qcongest.twoparty import (
    ALICE,
    BOB,
    CellProgram,
    build_two_party_schedule,
    cell_exists,
    execute_direct,
    execute_schedule_classical,
    make_random_cell_program,
    validate_schedule,
)


def test_figure_instance_message_count():
    sched = build_two_party_schedule(8, 2)
    assert len(sched.messages) == 5  # 4 phases + output


def test_single_area_when_r_equals_d():
    sched = build_two_party_schedule(3, 3)
    assert len(sched.messages) == 2  # one phase + output
    assert validate_schedule(sched, 3, 3).ok


def test_two_area_phase_owners():
    sched = build_two_party_schedule(4, 2)
    owners = {c.phase: c.owner for c in sched.cells.values()}
    assert owners[1] == BOB and owners[2] == ALICE


def test_d_at_least_r_single_message_before_output():
    for d in (5, 9, 16):
        sched = build_two_party_schedule(3, d)
        assert len(sched.messages) == 2
        assert validate_schedule(sched, 3, d).ok


def test_every_cell_assigned_exactly_once():
    for r, d in [(8, 2), (13, 3), (7, 7), (20, 4)]:
        sched = build_two_party_schedule(r, d)
        grid = {
            (i, t)
            for t in range(1, r + 1)
            for i in range(d + 2)
            if cell_exists(i, t, d)
        }
        assert set(sched.cells) == grid
        assert sorted(sched.order) == sorted(grid)


def test_validation_grid():
    for r in range(1, 41):
        for d in range(1, 11):
            sched = build_two_party_schedule(r, d)
            report = validate_schedule(sched, r, d)
            assert report.ok, (r, d, report.violations[:2])
            assert report.message_count <= -(-r // d) + 1


def test_schedule_that_leaves_a_cell_uncovered_is_refused(monkeypatch):
    rows = twoparty._phase_rows

    def without_row_1(s, d):
        sub1, sub2, ship1, ship2 = rows(s, d)
        return [c for c in sub1 if c[0] != 1], [c for c in sub2 if c[0] != 1], ship1, ship2

    monkeypatch.setattr(twoparty, "_phase_rows", without_row_1)
    with pytest.raises(EngineError, match=r"schedule left cells uncovered: \[\(1, 1\)"):
        build_two_party_schedule(8, 2)


def test_corrupted_owner_detected():
    sched = build_two_party_schedule(8, 2)
    victim = (2, 2)  # a Bob phase-1 cell whose product Bob consumes later
    cell = sched.cells[victim]
    sched.cells[victim] = replace(cell, owner=ALICE)
    report = validate_schedule(sched, 8, 2)
    assert not report.ok
    assert any("held by" in v or "ships" in v for v in report.violations)


def test_payload_bound():
    sched = build_two_party_schedule(24, 4, bw_qubits=5, mem_qubits=9)
    report = validate_schedule(sched, 24, 4)
    assert report.ok
    assert report.max_phase_qubits <= 4 * (5 + 9) + 4 * 5


def equality_test_program(k_bits: int, d: int) -> CellProgram:
    """A relays x rightward one hop per two rounds; B compares it with y.

    B's output is 1 iff the inputs match; run length 2(d+1) rounds.
    """
    mark = 1 << k_bits
    done = mark << 1

    def apply(i, t, rv, tv):
        if i == 0:
            return (rv, mark | rv) if t == 1 else (rv, tv)
        if i <= d:
            if t % 2 == 0:
                if tv & mark and not (rv & mark):
                    return tv, 0  # grab the payload off the left register
                return rv, tv
            if rv & mark:
                return rv, rv  # forward the payload rightward
            return rv, tv
        if tv & mark:  # B receives the payload
            return done | (1 if (tv & (mark - 1)) == rv else 0), 0
        return rv, tv

    def final(i, rv):
        return rv & 1 if (i == d + 1 and rv & done) else rv

    return CellProgram(
        r_bits=k_bits + 2,
        t_bits=k_bits + 2,
        init_private=lambda i, dd, x, y: x if i == 0 else y if i == dd + 1 else 0,
        apply=apply,
        final=final,
    )


def test_equality_program_matches_direct():
    d, k = 3, 4
    prog = equality_test_program(k, d)
    r = 2 * (d + 1)
    sched = build_two_party_schedule(r, d)
    for x, y in [(5, 5), (5, 9), (0, 0), (15, 7)]:
        out_sched, tr_sched = execute_schedule_classical(prog, x, y, sched)
        out_direct, tr_direct = execute_direct(prog, x, y, r, d)
        assert out_sched == out_direct
        assert tr_sched == tr_direct
        assert out_sched[d + 1] == (1 if x == y else 0)


def test_bit_exchange_transcripts_identical():
    d = 2
    prog = make_random_cell_program(6, 6, seed=99)
    r = 2 * (d + 1)
    sched = build_two_party_schedule(r, d)
    out_s, tr_s = execute_schedule_classical(prog, 41, 23, sched)
    out_d, tr_d = execute_direct(prog, 41, 23, r, d)
    assert tr_s == tr_d  # full per-cell transcript, not just outputs
    assert out_s == out_d


def test_random_programs_bit_identical():
    rng = random.Random(2024)
    for trial in range(40):
        r = rng.randrange(1, 41)
        d = rng.randrange(1, 9)
        prog = make_random_cell_program(8, 8, seed=trial)
        x, y = rng.randrange(256), rng.randrange(256)
        sched = build_two_party_schedule(r, d)
        assert execute_schedule_classical(prog, x, y, sched)[0] == execute_direct(
            prog, x, y, r, d
        )[0], (r, d, trial)
