"""Test-vector file round-trips and error handling."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.io_formats.vectors import parse_vectors, write_vectors


class TestWrite:
    def test_basic(self):
        text = write_vectors([5, 0, 15], 4)
        assert text == "0101\n0000\n1111\n"

    def test_comment(self):
        text = write_vectors([1], 2, comment="two lines\nof comment")
        assert text.startswith("# two lines\n# of comment\n")

    def test_range_check(self):
        with pytest.raises(ParseError):
            write_vectors([16], 4)


class TestParse:
    def test_round_trip(self):
        vectors = [0, 7, 12, 3]
        assert parse_vectors(write_vectors(vectors, 4)) == vectors

    def test_width_inference(self):
        assert parse_vectors("101\n010\n") == [5, 2]

    def test_explicit_width_enforced(self):
        with pytest.raises(ParseError, match="width"):
            parse_vectors("101\n", num_inputs=4)

    def test_inconsistent_rows(self):
        with pytest.raises(ParseError, match="width"):
            parse_vectors("101\n01\n")

    def test_comments_and_blanks_skipped(self):
        assert parse_vectors("# c\n\n11  # inline\n") == [3]

    def test_bad_characters(self):
        with pytest.raises(ParseError, match="bad vector"):
            parse_vectors("10x\n")

    def test_empty_file(self):
        assert parse_vectors("# nothing\n") == []


class TestCliIntegration:
    def test_gen_tests_output_parses(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "tests.vec"
        assert main(
            ["gen-tests", "paper_example", "--n", "2", "--out", str(out)]
        ) == 0
        vectors = parse_vectors(out.read_text(), num_inputs=4)
        assert len(vectors) == len(set(vectors)) > 0

    def test_generated_set_detects_all_targets(self, tmp_path, example_universe):
        from repro.cli import main

        out = tmp_path / "tests.vec"
        main(["gen-tests", "paper_example", "--n", "1", "--out", str(out)])
        vectors = parse_vectors(out.read_text(), num_inputs=4)
        sig = sum(1 << v for v in vectors)
        for f_sig in example_universe.target_table.packed.to_bigints():
            if f_sig:
                assert f_sig & sig
