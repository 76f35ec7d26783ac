"""The rule set: one class per determinism/distribution invariant.

Each rule names the invariant it protects and the historical bug class
that motivated it (see PAPER.md, "Determinism invariants and static
checks").  Rules are scoped by dotted module prefix — an invariant about
shard plans has no business flagging the FSM synthesizer — and every
finding carries an actionable message.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from reprolint.engine import ClassInfo, Finding, ProjectIndex

__all__ = ["ALL_RULES", "Rule"]

_ = ClassInfo  # re-exported for rule authors extending the index


def _dotted(parts: Sequence[str]) -> str:
    return ".".join(parts)


def _in_scope(parts: Sequence[str], prefixes: Sequence[str]) -> bool:
    dotted = _dotted(parts)
    return any(
        dotted == p or dotted.startswith(p + ".") for p in prefixes
    )


def _call_chain(node: ast.expr) -> str | None:
    """Dotted name of an attribute/name chain (``np.random.default_rng``)."""
    names: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        names.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    names.append(cur.id)
    return ".".join(reversed(names))


class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    code: str = ""
    name: str = ""
    description: str = ""
    #: Dotted module prefixes the rule applies to; empty = everywhere.
    scope: tuple[str, ...] = ()
    #: Whether modules under a ``tests`` component are exempt.
    skip_tests: bool = True

    def applies_to(self, parts: Sequence[str]) -> bool:
        if self.skip_tests and "tests" in parts:
            return False
        if not self.scope:
            return True
        return _in_scope(parts, self.scope)

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            self.code,
            message,
        )


# ----------------------------------------------------------------------
# RPL001 — unseeded RNG construction
# ----------------------------------------------------------------------
class UnseededRng(Rule):
    """Every random stream must be seeded, or runs are unreproducible.

    The differential guarantee (tcp ≡ pool ≡ inline ≡ serial) holds
    only because every sampled universe is drawn from an explicitly
    seeded stream.  ``random.Random()`` / ``np.random.default_rng()``
    with no seed pull OS entropy — two runs, or two workers, silently
    diverge.  Test code is exempt (fuzzing wants entropy).
    """

    code = "RPL001"
    name = "unseeded-rng"
    description = "unseeded RNG construction outside tests"

    _CONSTRUCTORS = ("Random", "RandomState", "default_rng")
    _CHAINS = {
        "random.Random",
        "random.seed",
        "np.random.RandomState",
        "numpy.random.RandomState",
    }
    _FROM_MODULES = {"random", "numpy.random"}

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        imported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module in self._FROM_MODULES:
                    imported.update(
                        alias.asname or alias.name
                        for alias in node.names
                        if alias.name in self._CONSTRUCTORS
                    )
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            chain = _call_chain(node.func)
            if chain is None:
                continue
            flagged = (
                chain in self._CHAINS
                or chain.endswith(".default_rng")
                or chain in imported
            )
            if flagged:
                what = chain.rsplit(".", maxsplit=1)[-1]
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"`{chain}()` draws OS entropy — pass an explicit "
                        f"seed so every worker and every rerun sees the "
                        f"same {what} stream",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RPL002 — unordered iteration where order is load-bearing
# ----------------------------------------------------------------------
class UnorderedIteration(Rule):
    """Iteration order over sets feeds signatures and cache keys.

    In ``repro.parallel`` and ``repro.faultsim``, iteration order ends
    up in shard plans, content-addressed cache keys, and signature bit
    layouts — iterating a ``set`` (hash order, perturbed by
    ``PYTHONHASHSEED`` for str members) makes those artifacts differ
    between processes.  In ``repro.serve`` it ends up in ``/stats``
    documents and response ordering, which the byte-identity tests
    diff.  Iterate ``sorted(...)`` views, or justify with a pragma
    when order provably cannot escape.
    """

    code = "RPL002"
    name = "unordered-iteration"
    description = (
        "iteration over a set in order-sensitive modules "
        "(repro.parallel / repro.faultsim / repro.serve)"
    )
    scope = ("repro.parallel", "repro.faultsim", "repro.serve")

    _SET_CALLS = {"set", "frozenset"}
    _SET_METHODS = {
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "copy",
    }
    _ITER_CALLS = {"list", "tuple", "enumerate", "iter"}

    def _is_set(self, node: ast.expr, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self._SET_CALLS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._SET_METHODS
            ):
                return self._is_set(func.value, set_names)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set(node.left, set_names) or self._is_set(
                node.right, set_names
            )
        return False

    def _scopes(
        self, tree: ast.Module
    ) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
        yield tree, tree.body
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, node.body

    @staticmethod
    def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into nested functions.

        Nested functions are separate name scopes (yielded separately
        by :meth:`_scopes`); descending here would attribute their
        locals — and their iteration sites — to the enclosing scope.
        """
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                stack.append(child)

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        findings: list[Finding] = []
        for scope, body in self._scopes(tree):
            set_names: set[str] = set()
            # Two passes: first learn which local names hold sets
            # (assignments may follow uses textually in loops), then
            # flag the iteration sites.
            for node in self._walk_scope(body):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    value = node.value
                    if value is not None and self._is_set(
                        value, set_names
                    ):
                        for target in targets:
                            if isinstance(target, ast.Name):
                                set_names.add(target.id)
            for node in self._walk_scope(body):
                for where, iterable in self._iteration_sites(node):
                    if self._is_set(iterable, set_names):
                        findings.append(
                            self.finding(
                                path,
                                where,
                                "iterating a set here makes the result "
                                "depend on hash order; wrap the "
                                "iterable in sorted(...)",
                            )
                        )
        return findings

    def _iteration_sites(
        self, node: ast.AST
    ) -> Iterator[tuple[ast.AST, ast.expr]]:
        if isinstance(node, ast.For):
            yield node, node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                yield node, gen.iter
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in self._ITER_CALLS
                and node.args
            ):
                yield node, node.args[0]


# ----------------------------------------------------------------------
# RPL003 — derived caches leaking into pickles
# ----------------------------------------------------------------------
class PickleCacheLeak(Rule):
    """``init=False`` dataclass fields must be dropped by __getstate__.

    Dataclasses ride the executor boundary inside ``ShardTask`` payload
    graphs.  A lazily-rebuilt cache declared ``field(init=False, ...)``
    that is *not* dropped in ``__getstate__`` bloats every pool/tcp
    pickle with derived state — and deserializes stale if the
    derivation ever changes (the pre-PR-6 ``VectorUniverse._bit_index``
    bug).  A ``__getstate__`` inherited from a project base class
    counts (the generic cache-dropping pattern).
    """

    code = "RPL003"
    name = "pickle-cache-leak"
    description = (
        "dataclass with init=False cache fields but no __getstate__"
    )

    @staticmethod
    def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if isinstance(target, ast.Name) and target.id == "dataclass":
                return True
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "dataclass"
            ):
                return True
        return False

    @staticmethod
    def _noinit_fields(node: ast.ClassDef) -> list[str]:
        names: list[str] = []
        for item in node.body:
            if not isinstance(item, ast.AnnAssign):
                continue
            value = item.value
            if not isinstance(value, ast.Call):
                continue
            chain = _call_chain(value.func)
            if chain not in ("field", "dataclasses.field"):
                continue
            for kw in value.keywords:
                if (
                    kw.arg == "init"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    and isinstance(item.target, ast.Name)
                ):
                    names.append(item.target.id)
        return names

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_dataclass_decorated(node):
                continue
            fields = self._noinit_fields(node)
            if not fields:
                continue
            if index.has_getstate(node.name):
                continue
            listed = ", ".join(fields)
            findings.append(
                self.finding(
                    path,
                    node,
                    f"dataclass {node.name} has init=False field(s) "
                    f"[{listed}] but no __getstate__ dropping them — "
                    f"derived caches leak into executor pickles",
                )
            )
        return findings


# ----------------------------------------------------------------------
# RPL004 — exists-then-act (TOCTOU)
# ----------------------------------------------------------------------
class ExistsThenAct(Rule):
    """``.exists()`` then acting on the same path races other workers.

    The shard cache's whole design is single-atomic-op transitions; an
    ``exists()`` probe followed by ``open``/``rename``/``unlink``/a
    write on the same path reintroduces a window in which a racing
    worker observes (or destroys) the stale branch — pool children,
    ``repro worker`` processes, and a thief duplicating a stolen shard
    all write the same content-addressed entries.  The analysis
    service shares the hazard: it sits above the same shard cache,
    with ``repro worker`` processes racing it.  Use EAFP
    (``try``/``except FileNotFoundError``) or an atomic create/rename.
    """

    code = "RPL004"
    name = "exists-then-act"
    description = (
        "`.exists()` followed by an act on the same path in "
        "repro.parallel / repro.serve (TOCTOU)"
    )
    scope = ("repro.parallel", "repro.serve")

    _MUTATORS = {
        "open",
        "unlink",
        "rename",
        "replace",
        "rmdir",
        "touch",
        "mkdir",
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "symlink_to",
        "hardlink_to",
    }

    @staticmethod
    def _pos(node: ast.AST) -> tuple[int, int]:
        return (
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
        )

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        findings: list[Finding] = []
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in functions:
            probes: list[tuple[str, ast.Call]] = []
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == "exists"
                    and not node.args
                ):
                    probes.append((ast.dump(callee.value), node))
                elif (
                    _call_chain(callee)
                    in ("os.path.exists", "path.exists", "op.exists")
                    and node.args
                ):
                    probes.append((ast.dump(node.args[0]), node))
            if not probes:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                for probe_dump, probe in probes:
                    if self._pos(node) <= self._pos(probe):
                        continue
                    if self._acts_on(node, probe_dump):
                        findings.append(
                            self.finding(
                                path,
                                node,
                                "this acts on a path probed with "
                                "`.exists()` earlier in the function — "
                                "the window between probe and act races "
                                "other workers; use EAFP or an atomic "
                                "rename",
                            )
                        )
                        break
        return findings

    def _acts_on(self, call: ast.Call, probe_dump: str) -> bool:
        callee = call.func
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr in self._MUTATORS
            and ast.dump(callee.value) == probe_dump
        ):
            return True
        # The probed path handed to *any* call (os.rename, a private
        # _write helper, open) counts as an act.
        if isinstance(callee, ast.Attribute) and callee.attr == "exists":
            return False
        return any(
            ast.dump(arg) == probe_dump
            for arg in list(call.args)
            + [kw.value for kw in call.keywords]
        )


# ----------------------------------------------------------------------
# RPL005 — numpy uint64 hazards in the packed kernels
# ----------------------------------------------------------------------
class Uint64Hazard(Rule):
    """Signed/float contamination of the ``uint64`` word lanes.

    The packed-signature layout is exact only while every lane op stays
    in ``uint64``: true division or ``**`` promote to ``float64``
    (silently rounding bits ≥ 2**53), signed dtypes flip the top bit's
    meaning, and numpy 1.x promotes ``uint64 scalar ⋄ python int`` to
    ``float64``.  Popcount *accumulators* (``.sum(dtype=int64)``) are
    the one blessed signed idiom — counts, not bit lanes.
    """

    code = "RPL005"
    name = "uint64-hazard"
    description = (
        "signed/float promotion hazards in repro.logic.packed / "
        "repro.simulation.ppsfp"
    )
    scope = ("repro.logic.packed", "repro.simulation.ppsfp")

    _SIGNED = {"int64", "int32", "int16", "int8"}
    _ACCUMULATORS = {"sum", "cumsum", "prod", "dot", "matmul"}

    def _is_signed_dtype(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in self._SIGNED
        if isinstance(node, ast.Name):
            return node.id in self._SIGNED or node.id == "int"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value in self._SIGNED | {"i1", "i2", "i4", "i8"}
        return False

    @staticmethod
    def _is_uint64_scalar(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = _call_chain(node.func)
        return chain is not None and chain.endswith("uint64")

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                if isinstance(node.op, (ast.Div, ast.Pow)):
                    op = "/" if isinstance(node.op, ast.Div) else "**"
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"`{op}` promotes uint64 lanes to float64 "
                            f"(bits ≥ 2**53 round silently); use `//` "
                            f"or shifts",
                        )
                    )
                elif isinstance(node.left, ast.Constant) or isinstance(
                    node.right, ast.Constant
                ):
                    scalar = (
                        node.left
                        if self._is_uint64_scalar(node.left)
                        else node.right
                        if self._is_uint64_scalar(node.right)
                        else None
                    )
                    other = (
                        node.right if scalar is node.left else node.left
                    )
                    if (
                        scalar is not None
                        and isinstance(other, ast.Constant)
                        and isinstance(other.value, int)
                    ):
                        findings.append(
                            self.finding(
                                path,
                                node,
                                "uint64 scalar mixed with a bare python "
                                "int promotes to float64 on numpy 1.x; "
                                "wrap both operands in np.uint64",
                            )
                        )
            elif isinstance(node, ast.UnaryOp) and isinstance(
                node.op, ast.USub
            ):
                if "uint64" in ast.dump(node.operand):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            "negating a uint64 value wraps modulo 2**64 "
                            "(or promotes to float64 for scalars); "
                            "compute the complement explicitly",
                        )
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                exempt = (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._ACCUMULATORS
                )
                if exempt:
                    continue
                for value in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    if self._is_signed_dtype(value):
                        findings.append(
                            self.finding(
                                path,
                                value,
                                "signed dtype in a uint64 kernel module "
                                "— bit lanes must stay unsigned "
                                "(accumulating popcounts via "
                                "`.sum(dtype=int64)` is the one blessed "
                                "signed idiom)",
                            )
                        )
        return findings


# ----------------------------------------------------------------------
# RPL006 — float equality in estimator/stopping-rule code
# ----------------------------------------------------------------------
class FloatEquality(Rule):
    """``==`` against float literals in CI/stopping-rule arithmetic.

    Stopping rules compare half-widths, confidences, and variance terms
    that arrive through floating-point arithmetic; exact equality
    against a float literal either never fires or fires on one platform
    and not another — a nondeterministic stopping round.  Compare with
    a tolerance, or restate the test on exact integers.
    """

    code = "RPL006"
    name = "float-equality"
    description = (
        "float ==/!= comparison in repro.adaptive / "
        "repro.faultsim.sampling"
    )
    scope = ("repro.adaptive", "repro.faultsim.sampling")

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands, operands[1:], strict=False
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, float
                    ):
                        findings.append(
                            self.finding(
                                path,
                                node,
                                f"exact comparison against "
                                f"{side.value!r} in estimator code — "
                                f"float arithmetic makes equality "
                                f"platform-dependent; use a tolerance "
                                f"or integer-scaled values",
                            )
                        )
                        break
        return findings


# ----------------------------------------------------------------------
# RPL007 — direct clock reads in the observability layer
# ----------------------------------------------------------------------
class DirectClockRead(Rule):
    """``repro.obs`` and the tcp transport never read the clock.

    The tracer's determinism guarantee — byte-identical trace files
    under ``ManualClock`` in tests — holds only because every duration
    and timestamp funnels through the one injected clock.  A stray
    ``time.monotonic()`` in a span or histogram path reintroduces
    wall-clock jitter that no test can pin.  ``repro.parallel.sched``
    takes ``now`` as an argument for the same reason: its lease, steal,
    stall and idle tests drive time explicitly.  Its socket adapter
    ``repro.parallel.netqueue`` reads time only through
    ``obs.system_clock()``, so tests can substitute a ``ManualClock``
    there too.  ``repro.obs.clock`` is the single audited call site
    (``SystemClock`` wraps the real functions) and is exempt.
    """

    code = "RPL007"
    name = "direct-clock-read"
    description = (
        "direct time.time()/monotonic()/perf_counter() in repro.obs, "
        "repro.parallel.sched or repro.parallel.netqueue (inject a Clock "
        "or take `now`; repro.obs.clock is the audited call site)"
    )
    scope = ("repro.obs", "repro.parallel.sched", "repro.parallel.netqueue")

    _FUNCTIONS = {
        "time",
        "monotonic",
        "perf_counter",
        "time_ns",
        "monotonic_ns",
        "perf_counter_ns",
    }

    def applies_to(self, parts: Sequence[str]) -> bool:
        if _dotted(parts) == "repro.obs.clock":
            return False  # the single audited call site
        return super().applies_to(parts)

    def check(
        self,
        path: str,
        parts: Sequence[str],
        tree: ast.Module,
        index: ProjectIndex,
    ) -> list[Finding]:
        imported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                imported.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name in self._FUNCTIONS
                )
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _call_chain(node.func)
            if chain is None:
                continue
            flagged = (
                chain.startswith("time.")
                and chain[len("time.") :] in self._FUNCTIONS
            ) or chain in imported
            if flagged:
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"`{chain}()` reads the process clock directly — "
                        f"observability code takes an injected Clock "
                        f"(``obs.system_clock()`` by default) and the "
                        f"scheduler an explicit ``now``, so tests can "
                        f"drive time deterministically; the only "
                        f"audited call site is repro.obs.clock",
                    )
                )
        return findings


ALL_RULES: tuple[Rule, ...] = (
    UnseededRng(),
    UnorderedIteration(),
    PickleCacheLeak(),
    ExistsThenAct(),
    Uint64Hazard(),
    FloatEquality(),
    DirectClockRead(),
)
