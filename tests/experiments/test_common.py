"""Experiment-layer infrastructure: caching, env overrides, rendering."""

from __future__ import annotations

import os

import pytest

from repro import cli
from repro.errors import AnalysisError
from repro.experiments.common import (
    backend_from_env,
    env_int,
    get_universe,
    render_rows,
    suite_circuits,
)
from repro.faultsim.backends import TableBackend
from repro.options import OPTIONS, backend_from_options

#: One exercising value per option-table row (plus the companions the
#: row needs to be valid), shared by the CLI / env / service parity
#: tests.  Keyed by dest.
ROW_CASES: dict[str, dict[str, object]] = {
    "backend": {"backend": "serial"},
    "samples": {"backend": "sampled", "samples": 16},
    "replacement": {"backend": "sampled", "samples": 16, "replacement": True},
    "jobs": {"jobs": 2},
    "executor": {"executor": "inline"},
    "broker": {"executor": "tcp", "broker": "h:1"},
    "target_halfwidth": {"backend": "adaptive", "target_halfwidth": 0.2},
    "max_samples": {"backend": "adaptive", "max_samples": 128},
    "initial_samples": {"backend": "adaptive", "initial_samples": 32},
    "stratify": {"backend": "adaptive", "stratify": "bridging"},
}

#: The backend/execution flags every analysis command accepted before
#: the option table existed; the table must neither add nor drop one.
BACKEND_FLAGS = {
    "--backend", "--samples", "--replacement", "--jobs", "--executor",
    "--broker", "--target-halfwidth", "--max-samples",
    "--initial-samples", "--stratify",
}
COMMAND_FLAGS = {
    "analyze": BACKEND_FLAGS | {"--seed", "--confidence"},
    "escape": BACKEND_FLAGS | {"--seed", "--k", "--nmax"},
    "partition": BACKEND_FLAGS | {"--seed", "--max-inputs"},
}

#: Every REPRO_* variable backend resolution reads, across the
#: scenarios of ``test_env_variables_read_are_pinned``.
ENV_READ = {
    "REPRO_BACKEND", "REPRO_SAMPLES", "REPRO_TARGET_HALFWIDTH",
    "REPRO_MAX_SAMPLES", "REPRO_STRATIFY", "REPRO_SEED", "REPRO_JOBS",
    "REPRO_EXECUTOR", "REPRO_BROKER",
}

ENV_NAMES = {option.dest: option.env for option in OPTIONS}


def case_argv(case: dict[str, object]) -> list[str]:
    """The CLI tokens of a ROW_CASES entry."""
    argv: list[str] = []
    for dest, value in case.items():
        flag = "--" + dest.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def subcommand(name: str):
    parser = cli.build_parser()
    (subparsers,) = parser._subparsers._group_actions
    return subparsers.choices[name]


def clear_backend_env(monkeypatch) -> None:
    for var in ENV_READ:
        monkeypatch.delenv(var, raising=False)


class TestCaches:
    def test_universe_cached(self):
        assert get_universe("lion") is get_universe("lion")

    def test_worst_case_cached(self):
        assert get_universe("lion").worst_case is (
            get_universe("lion").worst_case
        )

    def test_worst_case_uses_cached_universe(self):
        u = get_universe("lion")
        wc = get_universe("lion").worst_case
        assert wc.target_table is u.target_table

    def test_backend_keys_the_cache(self):
        sampled = TableBackend(samples=8, seed=1)
        u_default = get_universe("lion")
        u_sampled = get_universe("lion", sampled)
        assert u_sampled is not u_default
        assert u_sampled is get_universe(
            "lion", TableBackend(samples=8, seed=1)
        )
        assert u_sampled.target_table.universe.size == 8

    def test_explicit_exhaustive_shares_default_cache_entry(self, monkeypatch):
        u_default = get_universe("lion")
        assert get_universe("lion", TableBackend()) is u_default
        monkeypatch.setenv("REPRO_BACKEND", "exhaustive")
        assert get_universe("lion") is u_default

    def test_env_switch_respected_after_default_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        u_default = get_universe("lion")
        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "8")
        monkeypatch.setenv("REPRO_SEED", "1")
        u_env = get_universe("lion")
        assert u_env is not u_default
        assert u_env.target_table.universe.size == 8


class TestEnvOverrides:
    def test_env_int_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TESTVAR", raising=False)
        assert env_int("REPRO_TESTVAR", 7) == 7

    def test_env_int_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TESTVAR", "42")
        assert env_int("REPRO_TESTVAR", 7) == 42

    @pytest.mark.parametrize("var", ["REPRO_K", "REPRO_NMAX", "REPRO_SEED"])
    def test_env_int_malformed_names_the_variable(self, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        with pytest.raises(
            AnalysisError, match=f"^{var} must be an integer, got 'abc'$"
        ):
            env_int(var, 7)

    def test_suite_circuits_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CIRCUITS", raising=False)
        assert len(suite_circuits()) == 35

    def test_suite_circuits_custom_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CIRCUITS", raising=False)
        assert suite_circuits(("a", "b")) == ["a", "b"]

    def test_suite_circuits_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CIRCUITS", "lion, keyb ,cse")
        assert suite_circuits() == ["lion", "keyb", "cse"]

    def test_backend_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert backend_from_env() is None

    def test_backend_from_env_sampled(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "64")
        monkeypatch.setenv("REPRO_SEED", "3")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert backend_from_env() == TableBackend(samples=64, seed=3)

    def test_backend_from_env_rejects_samples_without_sampling(
        self, monkeypatch
    ):
        from repro.errors import AnalysisError

        monkeypatch.setenv("REPRO_BACKEND", "exhaustive")
        monkeypatch.setenv("REPRO_SAMPLES", "100")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(
            AnalysisError, match="REPRO_SAMPLES only applies to "
            "REPRO_BACKEND=sampled"
        ):
            backend_from_env()

    def test_backend_from_env_jobs_only(self, monkeypatch):
        from repro.parallel import ParallelBackend, PoolExecutor

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "2")
        backend = backend_from_env()
        assert isinstance(backend, ParallelBackend)
        assert backend.base == TableBackend()
        assert backend.executor == PoolExecutor(jobs=2)

    def test_backend_from_env_jobs_wraps_engine(self, monkeypatch):
        from repro.parallel import ParallelBackend

        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "64")
        monkeypatch.setenv("REPRO_SEED", "3")
        monkeypatch.setenv("REPRO_JOBS", "2")
        backend = backend_from_env()
        assert isinstance(backend, ParallelBackend)
        assert backend.base == TableBackend(samples=64, seed=3)

    def test_backend_from_env_jobs_one_is_single_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert backend_from_env() is None


class TestOptionTable:
    """One declaration behind the CLI flags, the env overrides and the
    service payload keys (the service side is in tests/serve)."""

    def test_every_row_has_a_case(self):
        assert set(ROW_CASES) == {option.dest for option in OPTIONS}

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_cli_flags_are_pinned(self, command):
        flags = {
            flag
            for action in subcommand(command)._actions
            for flag in action.option_strings
        } - {"-h", "--help"}
        assert flags == COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    @pytest.mark.parametrize("option", OPTIONS, ids=lambda o: o.dest)
    def test_every_row_is_a_flag_with_its_dest(self, command, option):
        circuit = "c17"
        case = ROW_CASES[option.dest]
        args = cli.build_parser().parse_args(
            [command, circuit, *case_argv(case)]
        )
        for dest, value in case.items():
            assert getattr(args, dest) == value

    @pytest.mark.parametrize(
        "option",
        [option for option in OPTIONS if option.env is not None],
        ids=lambda o: o.dest,
    )
    def test_env_row_resolves_like_its_flag(self, monkeypatch, option):
        clear_backend_env(monkeypatch)
        case = {**ROW_CASES[option.dest], "seed": 7}
        for dest, value in case.items():
            monkeypatch.setenv(ENV_NAMES.get(dest) or "REPRO_SEED", str(value))
        args = cli.build_parser().parse_args(
            ["escape", "c17", *case_argv(case)]
        )
        assert backend_from_env() == backend_from_options(vars(args))

    def test_env_names_are_pinned(self):
        assert {
            option.dest: option.env for option in OPTIONS if option.env
        } == {
            "backend": "REPRO_BACKEND",
            "samples": "REPRO_SAMPLES",
            "target_halfwidth": "REPRO_TARGET_HALFWIDTH",
            "max_samples": "REPRO_MAX_SAMPLES",
            "stratify": "REPRO_STRATIFY",
        }

    def test_env_variables_read_are_pinned(self, monkeypatch):
        class RecordingEnviron(dict):
            def __init__(self, values):
                super().__init__(values)
                self.read: set[str] = set()

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                self.read.add(key)
                return super().__contains__(key)

        base = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        read: set[str] = set()
        for scenario in (
            {},
            {"REPRO_BACKEND": "adaptive"},
            {"REPRO_EXECUTOR": "tcp", "REPRO_BROKER": "h:1"},
        ):
            environ = RecordingEnviron({**base, **scenario})
            monkeypatch.setattr(os, "environ", environ)
            backend_from_env()
            read |= {key for key in environ.read if key.startswith("REPRO_")}
        assert read == ENV_READ

    @pytest.mark.parametrize(
        ("var", "value", "flag"),
        [
            ("REPRO_SAMPLES", "64", "--samples"),
            ("REPRO_TARGET_HALFWIDTH", "0.1", "--target-halfwidth"),
            ("REPRO_MAX_SAMPLES", "64", "--max-samples"),
            ("REPRO_STRATIFY", "bridging", "--stratify"),
        ],
    )
    def test_env_rejects_options_of_another_backend(
        self, monkeypatch, var, value, flag
    ):
        # Once silently ignored without REPRO_BACKEND; now rejected
        # as the flag is under the default backend, and named as set.
        clear_backend_env(monkeypatch)
        monkeypatch.setenv(var, value)
        with pytest.raises(AnalysisError, match=f"{var} only appl") as err:
            backend_from_env()
        assert "(got REPRO_BACKEND=exhaustive)" in str(err.value)
        assert flag not in str(err.value)

    @pytest.mark.parametrize(
        ("var", "value", "message"),
        [
            ("REPRO_SAMPLES", "abc", "REPRO_SAMPLES must be an integer"),
            ("REPRO_SEED", "x", "REPRO_SEED must be an integer"),
            ("REPRO_MAX_SAMPLES", "1.5", "REPRO_MAX_SAMPLES must be an int"),
            ("REPRO_TARGET_HALFWIDTH", "x", "REPRO_TARGET_HALFWIDTH must be a "
             "number"),
            ("REPRO_STRATIFY", "bogus", "REPRO_STRATIFY: unknown stratify "
             "'bogus'"),
            ("REPRO_BACKEND", "turbo", "REPRO_BACKEND: unknown backend "
             "'turbo'"),
        ],
    )
    def test_env_malformed_value_names_the_variable(
        self, monkeypatch, var, value, message
    ):
        clear_backend_env(monkeypatch)
        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "16")
        monkeypatch.setenv(var, value)
        with pytest.raises(AnalysisError, match=message):
            backend_from_env()

    def test_env_seed_alone_is_the_default_backend(self, monkeypatch):
        clear_backend_env(monkeypatch)
        monkeypatch.setenv("REPRO_SEED", "9")
        assert backend_from_env() is None

    def test_env_pool_executor_keeps_its_default_size(self, monkeypatch):
        # REPRO_JOBS=1 must not size an explicit pool down to one
        # process: the pool executor's own default (2) applies.
        from repro.parallel import ParallelBackend, PoolExecutor

        clear_backend_env(monkeypatch)
        monkeypatch.setenv("REPRO_EXECUTOR", "pool")
        monkeypatch.setenv("REPRO_JOBS", "1")
        backend = backend_from_env()
        assert isinstance(backend, ParallelBackend)
        assert backend.executor == PoolExecutor(jobs=2)

    @pytest.mark.parametrize(
        ("var", "value"),
        [("REPRO_K", "abc"), ("REPRO_SAMPLES", "abc"), ("REPRO_SEED", "x")],
    )
    def test_table_command_exits_2_on_a_malformed_env(
        self, monkeypatch, capsys, var, value
    ):
        clear_backend_env(monkeypatch)
        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "16")
        monkeypatch.setenv(var, value)
        assert cli.main(["table5", "--circuits", "lion"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {var} must be an integer, got {value!r}\n"

    def test_table_command_names_env_options_as_set(
        self, monkeypatch, capsys
    ):
        # The mismatch error names the variables, not the flags the
        # user never typed.
        clear_backend_env(monkeypatch)
        monkeypatch.setenv("REPRO_SAMPLES", "64")
        assert cli.main(["table2", "--circuits", "lion"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: REPRO_SAMPLES only applies to REPRO_BACKEND=sampled "
            "(got REPRO_BACKEND=exhaustive)\n"
        )


class TestParallelCacheComposition:
    """Parallel-built universes share entries with their base backend
    (the tables are bit-identical, so caching them twice would only
    duplicate hundreds of megabytes)."""

    def test_parallel_shares_base_cache_entry(self, tmp_path, monkeypatch):
        from repro.parallel import ParallelBackend, PoolExecutor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        base = TableBackend(samples=8, seed=2)
        u_base = get_universe("lion", base)
        u_parallel = get_universe(
            "lion", ParallelBackend(base=base, executor=PoolExecutor(jobs=2))
        )
        assert u_parallel is u_base

    def test_parallel_exhaustive_shares_default_entry(
        self, tmp_path, monkeypatch
    ):
        from repro.parallel import ParallelBackend, PoolExecutor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        u_default = get_universe("lion")
        wrapped = ParallelBackend(base=TableBackend(), executor=PoolExecutor())
        assert get_universe("lion", wrapped) is u_default
        assert get_universe("lion", wrapped).worst_case is (
            get_universe("lion").worst_case
        )

    def test_env_jobs_shares_default_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        u_default = get_universe("lion")
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert get_universe("lion") is u_default

    def test_executor_normalized_cache_keys(self, tmp_path, monkeypatch):
        # A distributed-built universe and a local build share one LRU
        # entry: the cache keys on the unwrapped base, never on the
        # execution substrate.
        from repro.parallel import InlineExecutor, ParallelBackend
        from repro.parallel.netqueue import TcpExecutor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        base = TableBackend(samples=8, seed=3)
        u_base = get_universe("lion", base)
        inline = ParallelBackend(base=base, executor=InlineExecutor())
        assert get_universe("lion", inline) is u_base
        # The tcp-wrapped lookup is a cache hit, so the broker itself
        # is never consulted (none is running here).
        networked = ParallelBackend(
            base=base, executor=TcpExecutor(broker="127.0.0.1:1")
        )
        assert get_universe("lion", networked) is u_base

    def test_backend_from_env_executor(self, monkeypatch):
        from repro.parallel import ParallelBackend
        from repro.parallel.netqueue import TcpExecutor

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setenv("REPRO_EXECUTOR", "tcp")
        monkeypatch.setenv("REPRO_BROKER", "h:1")
        backend = backend_from_env()
        assert isinstance(backend, ParallelBackend)
        assert backend.executor == TcpExecutor()
        assert backend.base == TableBackend()
        monkeypatch.delenv("REPRO_EXECUTOR")
        monkeypatch.delenv("REPRO_BROKER")
        assert backend_from_env() is None


class TestRenderRows:
    def test_alignment(self):
        out = render_rows(
            ["name", "v1", "v2"],
            [["a", "1", "22"], ["bbb", "333", "4"]],
        )
        lines = out.splitlines()
        assert len(lines) == 4
        # First column left-aligned, others right-aligned.
        assert lines[2].startswith("a ")
        assert lines[2].rstrip().endswith("22")

    def test_empty_rows(self):
        out = render_rows(["h1", "h2"], [])
        assert "h1" in out

    def test_wide_cells_grow_columns(self):
        out = render_rows(["h"], [["very-long-cell-content"]])
        assert "very-long-cell-content" in out
