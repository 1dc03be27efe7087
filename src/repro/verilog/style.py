"""Style and efficiency linting for Verilog sources.

The PyraNet ranking step asks a judge to score "the overall Verilog
coding style and the efficiency of the code" on a 0–20 scale.  This
module provides the deterministic analysis that judge is built on: a
set of lint rules, each with a severity-weighted penalty, covering the
issues hardware reviewers actually flag — blocking assignments in
clocked processes, latch-inferring incomplete branches, magic numbers,
unused signals, formatting inconsistencies, and so on.

:func:`lint` returns a :class:`StyleReport`; the ranking judge in
:mod:`repro.dataset.ranking` converts its penalty total to the 0–20
scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import ast_nodes as ast
from .parser import ParseError
from .unit import ast_for


@dataclass(frozen=True)
class Violation:
    """One style finding."""

    code: str
    message: str
    penalty: float
    line: int = 0

    def __str__(self) -> str:
        return f"{self.line}: {self.code}: {self.message}"


@dataclass
class StyleReport:
    """Lint outcome; ``penalty`` is the sum over violations (capped
    per-rule so one pervasive issue cannot dominate)."""

    violations: List[Violation] = field(default_factory=list)
    parse_failed: bool = False

    @property
    def penalty(self) -> float:
        by_code: Dict[str, float] = {}
        for violation in self.violations:
            by_code[violation.code] = by_code.get(violation.code, 0.0) + (
                violation.penalty
            )
        # Cap each style rule's total contribution at 4 points; fatal
        # E-codes (parse failures) are never capped.
        return sum(
            total if code.startswith("E") else min(total, 4.0)
            for code, total in by_code.items()
        )

    def codes(self) -> Set[str]:
        return {v.code for v in self.violations}


# -- rule implementations --------------------------------------------------


def _rule_line_length(lines: Sequence[str], out: List[Violation]) -> None:
    for number, line in enumerate(lines, start=1):
        if len(line.rstrip("\n")) > 120:
            out.append(Violation(
                "W001", "line exceeds 120 characters", 0.25, number))


def _rule_tabs_and_spaces(lines: Sequence[str], out: List[Violation]) -> None:
    has_tab_indent = any(line.startswith("\t") for line in lines)
    has_space_indent = any(
        line.startswith(" ") and line.strip() for line in lines
    )
    if has_tab_indent and has_space_indent:
        out.append(Violation(
            "W002", "mixed tab and space indentation", 1.5))


def _rule_trailing_whitespace(
    lines: Sequence[str], out: List[Violation]
) -> None:
    count = sum(
        1 for line in lines if line != line.rstrip() and line.strip()
    )
    if count > 3:
        out.append(Violation(
            "W003", f"trailing whitespace on {count} lines", 0.75))


def _rule_comment_density(
    lines: Sequence[str], out: List[Violation]
) -> None:
    code_lines = [line for line in lines if line.strip()]
    if len(code_lines) < 12:
        return
    comment_lines = sum(
        1 for line in code_lines
        if line.strip().startswith("//") or "/*" in line or "//" in line
    )
    if comment_lines == 0:
        out.append(Violation(
            "W004", "no comments in a non-trivial design", 1.75))


def _rule_indent_consistency(
    lines: Sequence[str], out: List[Violation]
) -> None:
    widths: Set[int] = set()
    for line in lines:
        stripped = line.lstrip(" ")
        if stripped and stripped != line and not line.startswith("\t"):
            widths.add(len(line) - len(stripped))
    # Wildly varying indent widths indicate copy-paste formatting.
    if len(widths) > 5:
        out.append(Violation(
            "W005", "inconsistent indentation levels", 2.0))


#: Acceptable naming styles: snake_case, SCREAMING_CASE, PascalCase.
_IDENT_RE = re.compile(
    r"^[a-z][a-z0-9_]*$|^[A-Z][A-Z0-9_]*$|^[A-Z][a-zA-Z0-9]*$"
)


class _AstRules:
    """AST-level style rules for one module."""

    def __init__(self, module: ast.Module, out: List[Violation]) -> None:
        self._module = module
        self._out = out

    def run(self) -> None:
        module = self._module
        self._check_port_style()
        self._check_naming()
        has_parameters = bool(module.parameters)
        for item in module.items:
            if isinstance(item, ast.Always):
                self._check_always(item)
        self._check_magic_numbers(has_parameters)
        self._check_unused_signals()

    def _check_port_style(self) -> None:
        undirected = [
            p for p in self._module.ports if p.direction is None
        ]
        # Non-ANSI headers are completed during parsing, so detect the
        # old style by body-level Port items.
        body_port_decls = [
            item for item in self._module.items if isinstance(item, ast.Port)
        ]
        if body_port_decls and not undirected:
            self._out.append(Violation(
                "S001", "non-ANSI (Verilog-1995) port declarations",
                0.5, self._module.line))

    def _check_naming(self) -> None:
        short = [
            p.name for p in self._module.ports
            if len(p.name) == 1 and p.name not in ("a", "b", "c", "d", "q", "y")
        ]
        cryptic = [
            p.name for p in self._module.ports
            if not _IDENT_RE.match(p.name) and not p.name.startswith("\\")
        ]
        if cryptic:
            self._out.append(Violation(
                "S002",
                f"mixed-case or cryptic port names: {sorted(cryptic)[:4]}",
                0.5, self._module.line))
        if len(short) > 2:
            self._out.append(Violation(
                "S003", f"many single-letter ports: {sorted(short)[:6]}",
                0.5, self._module.line))
        cryptic_internals = [
            item.name for item in self._module.items
            if isinstance(item, ast.Decl)
            and re.match(r"^[ntwsx]\d+$", item.name)
        ]
        if cryptic_internals:
            self._out.append(Violation(
                "S004",
                f"meaningless internal names: {cryptic_internals[:5]}",
                0.9 * len(cryptic_internals), self._module.line))

    def _check_always(self, item: ast.Always) -> None:
        sens = item.sensitivity
        if sens is None:
            return
        sequential = not sens.star and any(
            s.edge != "level" for s in sens.items
        )
        blocking, nonblocking = _count_assign_kinds(item.body)
        if sequential and blocking:
            self._out.append(Violation(
                "S010",
                f"{blocking} blocking assignment(s) in an edge-triggered "
                "always block", 1.5, item.line))
        if not sequential and nonblocking:
            self._out.append(Violation(
                "S011",
                f"{nonblocking} non-blocking assignment(s) in a "
                "combinational always block", 1.0, item.line))
        if not sequential:
            if _has_incomplete_case(item.body):
                self._out.append(Violation(
                    "S012",
                    "case without default in combinational logic "
                    "(latch risk)", 1.5, item.line))
            if _has_if_without_else(item.body):
                self._out.append(Violation(
                    "S013",
                    "if without else in combinational logic (latch risk)",
                    1.0, item.line))
            if not sens.star and _sensitivity_incomplete(item):
                self._out.append(Violation(
                    "S014",
                    "explicit sensitivity list may be incomplete "
                    "(prefer @*)", 0.75, item.line))
        if _has_delay(item.body) and sequential:
            self._out.append(Violation(
                "S015", "delay control inside clocked logic", 1.0,
                item.line))
        depth = _statement_depth(item.body)
        if depth > 6:
            self._out.append(Violation(
                "S016", f"deeply nested statements (depth {depth})",
                0.75, item.line))
        chain = _longest_if_chain(item.body)
        if chain >= 5:
            self._out.append(Violation(
                "S017",
                f"if/else chain of length {chain} (a case statement "
                "would be clearer and faster to synthesise)", 0.75,
                item.line))

    def _check_magic_numbers(self, has_parameters: bool) -> None:
        numbers: List[int] = []

        def visit(expr: Optional[ast.Expr]) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.Number):
                if expr.value > 64 and expr.width is None:
                    numbers.append(expr.value)
            for child in _expr_children(expr):
                visit(child)

        for item in self._module.items:
            if isinstance(item, ast.ContinuousAssign):
                visit(item.value)
            elif isinstance(item, (ast.Always, ast.Initial)):
                _visit_stmt_exprs(item.body, visit)
        if len(numbers) >= 3 and not has_parameters:
            self._out.append(Violation(
                "S020",
                f"magic numbers ({sorted(set(numbers))[:4]}…) without "
                "parameters", 0.75, self._module.line))

    def _check_unused_signals(self) -> None:
        declared: Dict[str, int] = {}
        for item in self._module.items:
            if isinstance(item, ast.Decl):
                declared[item.name] = item.line
        if not declared:
            return
        used: Set[str] = set()

        def visit(expr: Optional[ast.Expr]) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.Identifier):
                used.add(expr.name)
            for child in _expr_children(expr):
                visit(child)

        for item in self._module.items:
            if isinstance(item, ast.ContinuousAssign):
                visit(item.target)
                visit(item.value)
            elif isinstance(item, (ast.Always, ast.Initial)):
                _visit_stmt_exprs(item.body, visit, include_targets=True)
            elif isinstance(item, ast.Instance):
                for conn in item.connections + item.param_overrides:
                    visit(conn.expr)
            elif isinstance(item, ast.GateInstance):
                for conn in item.connections:
                    visit(conn)
            elif isinstance(item, ast.Decl) and item.init is not None:
                visit(item.init)
        unused = sorted(set(declared) - used)
        if unused:
            self._out.append(Violation(
                "S021", f"unused signal(s): {unused[:5]}",
                0.5 * len(unused), declared[unused[0]]))


# -- AST helpers ---------------------------------------------------------------


def _expr_children(expr: ast.Expr) -> List[Optional[ast.Expr]]:
    if isinstance(expr, ast.Binary):
        return [expr.left, expr.right]
    if isinstance(expr, ast.Unary):
        return [expr.operand]
    if isinstance(expr, ast.Ternary):
        return [expr.cond, expr.if_true, expr.if_false]
    if isinstance(expr, ast.Select):
        return [expr.base, expr.left, expr.right]
    if isinstance(expr, ast.Concat):
        return list(expr.parts)
    if isinstance(expr, ast.Replicate):
        return [expr.count, expr.value]
    if isinstance(expr, (ast.FunctionCall, ast.SystemCall)):
        return list(expr.args)
    return []


def _visit_stmt_exprs(stmt, visit, include_targets: bool = False) -> None:
    if stmt is None:
        return
    if isinstance(stmt, ast.Block):
        for inner in stmt.stmts:
            _visit_stmt_exprs(inner, visit, include_targets)
    elif isinstance(stmt, ast.Assign):
        visit(stmt.value)
        if include_targets:
            visit(stmt.target)
    elif isinstance(stmt, ast.If):
        visit(stmt.cond)
        _visit_stmt_exprs(stmt.then_stmt, visit, include_targets)
        _visit_stmt_exprs(stmt.else_stmt, visit, include_targets)
    elif isinstance(stmt, ast.Case):
        visit(stmt.subject)
        for item in stmt.items:
            for expr in item.exprs:
                visit(expr)
            _visit_stmt_exprs(item.body, visit, include_targets)
    elif isinstance(stmt, (ast.For, ast.While, ast.Repeat, ast.Forever)):
        if isinstance(stmt, ast.While):
            visit(stmt.cond)
        if isinstance(stmt, ast.Repeat):
            visit(stmt.count)
        _visit_stmt_exprs(stmt.body, visit, include_targets)
        if isinstance(stmt, ast.For):
            _visit_stmt_exprs(stmt.init, visit, include_targets)
            visit(stmt.cond)
            _visit_stmt_exprs(stmt.step, visit, include_targets)
    elif isinstance(stmt, (ast.Delay, ast.EventControl, ast.Wait)):
        _visit_stmt_exprs(stmt.stmt, visit, include_targets)
    elif isinstance(stmt, (ast.SystemTaskCall, ast.TaskCall)):
        for arg in stmt.args:
            visit(arg)


def _count_assign_kinds(stmt) -> Tuple[int, int]:
    blocking = nonblocking = 0

    def walk(node) -> None:
        nonlocal blocking, nonblocking
        if node is None:
            return
        if isinstance(node, ast.Assign):
            if node.blocking:
                blocking += 1
            else:
                nonblocking += 1
        for child in _stmt_children(node):
            walk(child)

    walk(stmt)
    return blocking, nonblocking


def _stmt_children(stmt) -> List:
    if isinstance(stmt, ast.Block):
        return list(stmt.stmts)
    if isinstance(stmt, ast.If):
        return [stmt.then_stmt, stmt.else_stmt]
    if isinstance(stmt, ast.Case):
        return [item.body for item in stmt.items]
    if isinstance(stmt, (ast.For, ast.While, ast.Repeat, ast.Forever)):
        extra = []
        if isinstance(stmt, ast.For):
            extra = [stmt.init, stmt.step]
        return [stmt.body] + extra
    if isinstance(stmt, (ast.Delay, ast.EventControl, ast.Wait)):
        return [stmt.stmt]
    return []


def _has_incomplete_case(stmt) -> bool:
    if stmt is None:
        return False
    if isinstance(stmt, ast.Case):
        has_default = any(not item.exprs for item in stmt.items)
        if not has_default:
            return True
    return any(_has_incomplete_case(c) for c in _stmt_children(stmt))


def _has_if_without_else(stmt) -> bool:
    if stmt is None:
        return False
    if isinstance(stmt, ast.If) and stmt.else_stmt is None:
        # else-if chains count via recursion; a bare if is the risk.
        if _assigns_anything(stmt.then_stmt):
            return True
    return any(_has_if_without_else(c) for c in _stmt_children(stmt))


def _assigns_anything(stmt) -> bool:
    if stmt is None:
        return False
    if isinstance(stmt, ast.Assign):
        return True
    return any(_assigns_anything(c) for c in _stmt_children(stmt))


def _sensitivity_incomplete(item: ast.Always) -> bool:
    """Are signals read in the body missing from the sensitivity list?"""
    listed: Set[str] = set()
    for entry in item.sensitivity.items:
        if isinstance(entry.expr, ast.Identifier):
            listed.add(entry.expr.name)
    read: Set[str] = set()

    def visit(expr: Optional[ast.Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Identifier):
            read.add(expr.name)
        for child in _expr_children(expr):
            visit(child)

    _visit_stmt_exprs(item.body, visit)
    return bool(read - listed)


def _has_delay(stmt) -> bool:
    if stmt is None:
        return False
    if isinstance(stmt, ast.Delay):
        return True
    return any(_has_delay(c) for c in _stmt_children(stmt))


def _statement_depth(stmt, depth: int = 0) -> int:
    if stmt is None:
        return depth
    best = depth
    for child in _stmt_children(stmt):
        best = max(best, _statement_depth(child, depth + 1))
    return best


def _longest_if_chain(stmt) -> int:
    if stmt is None:
        return 0
    if isinstance(stmt, ast.If):
        length = 1
        node = stmt.else_stmt
        while isinstance(node, ast.If):
            length += 1
            node = node.else_stmt
        inner = max(
            (_longest_if_chain(c) for c in _stmt_children(stmt)), default=0
        )
        return max(length, inner)
    return max(
        (_longest_if_chain(c) for c in _stmt_children(stmt)), default=0
    )


def lint(source: str) -> StyleReport:
    """Lint Verilog source text.

    Parse failures yield ``parse_failed=True`` with a single fatal
    violation; the ranking judge maps that to a score of 0.
    """
    report = StyleReport()
    lines = source.splitlines()
    _rule_line_length(lines, report.violations)
    _rule_tabs_and_spaces(lines, report.violations)
    _rule_trailing_whitespace(lines, report.violations)
    _rule_comment_density(lines, report.violations)
    _rule_indent_consistency(lines, report.violations)
    try:
        tree = ast_for(source)
    except ParseError as exc:
        report.parse_failed = True
        report.violations.append(Violation(
            "E000", f"parse error: {exc}", 20.0, getattr(exc, "line", 0)))
        return report
    for module in tree.modules:
        _AstRules(module, report.violations).run()
    if len(tree.modules) > 3:
        report.violations.append(Violation(
            "W006", f"{len(tree.modules)} modules in one file", 0.25))
    return report
