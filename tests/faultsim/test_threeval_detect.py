"""3-valued detection of partial vectors (Definition 2's ``tij`` checks)."""

from __future__ import annotations

from repro.faults.stuck_at import StuckAtFault
from repro.faultsim.threeval_detect import (
    cube_detects_stuck_at,
    cubes_detect_stuck_at,
    pair_checks_batch,
)
from repro.logic.cube import Cube, common_cube


class TestScalarDetection:
    def test_fully_specified_matches_membership(self, example_universe):
        """On full vectors, 3-valued detection equals T(f) membership."""
        c = example_universe.circuit
        table = example_universe.target_table
        for i, fault in enumerate(table.faults):
            sig = table.packed.row_bigint(i)
            for v in range(16):
                cube = Cube.full(v, 4)
                assert cube_detects_stuck_at(c, fault, cube) == bool(
                    (sig >> v) & 1
                )

    def test_partial_detection_soundness(self, example_universe):
        """If a partial vector detects f, all its completions must."""
        c = example_universe.circuit
        table = example_universe.target_table
        cubes = [
            Cube.from_string(s)
            for s in ("01xx", "x1x0", "0xx1", "xxxx", "011x", "1x00")
        ]
        for i, fault in enumerate(table.faults):
            sig = table.packed.row_bigint(i)
            for cube in cubes:
                if cube_detects_stuck_at(c, fault, cube):
                    for v in cube.completions():
                        assert (sig >> v) & 1, (
                            f"{table.fault_name(i)} vs {cube}"
                        )

    def test_known_tij(self, example_universe):
        """tij of 4 and 5 is 010x, which detects 1/1 (T = {4,5,6,7})."""
        c = example_universe.circuit
        fault = StuckAtFault(c.lid_of("1"), 1)
        tij = common_cube(4, 5, 4)
        assert str(tij) == "010x"
        assert cube_detects_stuck_at(c, fault, tij)

    def test_known_non_detecting_tij(self, example_universe):
        """tij of 4 and 11 shares only input 3=0... and detects nothing."""
        c = example_universe.circuit
        fault = StuckAtFault(c.lid_of("1"), 1)
        tij = common_cube(4, 11, 4)  # 0100 vs 1011 agree nowhere except...
        assert not cube_detects_stuck_at(c, fault, tij)


class TestBatchedDetection:
    def test_batch_matches_scalar(self, example_universe):
        c = example_universe.circuit
        fault = example_universe.target_faults[0]
        cubes = [
            common_cube(a, b, 4)
            for a in (4, 5, 6, 7)
            for b in (4, 5, 6, 7)
        ]
        batch = cubes_detect_stuck_at(c, fault, cubes)
        scalar = [cube_detects_stuck_at(c, fault, q) for q in cubes]
        assert batch == scalar

    def test_empty_batch(self, example_universe):
        assert (
            cubes_detect_stuck_at(
                example_universe.circuit, example_universe.target_faults[0], []
            )
            == []
        )

    def test_pair_checks(self, example_universe):
        c = example_universe.circuit
        fault = StuckAtFault(c.lid_of("1"), 1)  # T = {4,5,6,7}
        verdicts = pair_checks_batch(
            c, fault, [(4, 5), (4, 6), (4, 7), (5, 6)]
        )
        # (4,5) -> 010x detects f: similar.  (4,7) -> 01xx: 9 stays 0 with
        # fault only when 2=1... detection needs input1=0,2=1: 01xx forces
        # 9 good=0 faulty=1 -> detected: similar as well.
        scalar = [
            cube_detects_stuck_at(c, fault, common_cube(a, b, 4))
            for a, b in [(4, 5), (4, 6), (4, 7), (5, 6)]
        ]
        assert verdicts == scalar
