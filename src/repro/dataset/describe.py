"""Design-description generation for collected code.

Entries scraped from repositories arrive without descriptions; the
paper fills them in with GPT-4o-mini.  Our describer derives a faithful
natural-language description from the parsed AST: interface summary
(ports, widths, clocking), detected behavioural features (FSM, memory,
arithmetic, case-based selection), and structural notes (hierarchy,
generate loops).  Faithfulness matters because Table IV shows that
mismatched descriptions destroy fine-tuning quality — the description
must actually talk about *this* code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..verilog import ast_nodes as ast
from ..verilog import measure_module
from ..verilog.parser import ParseError
from ..verilog.unit import ast_for


def _port_phrase(port: ast.Port) -> str:
    width = ""
    if port.range is not None and isinstance(port.range.msb, ast.Number) \
            and isinstance(port.range.lsb, ast.Number):
        bits = abs(port.range.msb.value - port.range.lsb.value) + 1
        width = f"{bits}-bit "
    return f"{width}{port.direction} '{port.name}'"


_CLOCK_HINTS = ("clk", "clock")
_RESET_HINTS = ("rst", "reset", "clear")


def describe_module(module: ast.Module) -> str:
    """One-paragraph description of a parsed module."""
    metrics = measure_module(module)
    sentences: List[str] = []

    kind = "sequential" if metrics.is_sequential else "combinational"
    sentences.append(
        f"Module '{module.name}' is a {kind} Verilog design with "
        f"{len(module.ports)} port(s)."
    )

    inputs = [p for p in module.ports if p.direction == "input"]
    outputs = [p for p in module.ports if p.direction == "output"]
    clock = next(
        (p.name for p in inputs
         if any(h in p.name.lower() for h in _CLOCK_HINTS)), None)
    reset = next(
        (p.name for p in inputs
         if any(h in p.name.lower() for h in _RESET_HINTS)), None)
    data_inputs = [p for p in inputs if p.name not in (clock, reset)]
    if data_inputs:
        sentences.append(
            "Inputs: " + ", ".join(_port_phrase(p) for p in data_inputs[:6])
            + ("." if len(data_inputs) <= 6 else ", and more.")
        )
    if outputs:
        sentences.append(
            "Outputs: " + ", ".join(_port_phrase(p) for p in outputs[:6])
            + ("." if len(outputs) <= 6 else ", and more.")
        )
    if clock:
        reset_clause = (
            f" and reset '{reset}'" if reset else ""
        )
        sentences.append(
            f"State updates on the rising edge of '{clock}'{reset_clause}."
        )

    features: List[str] = []
    if metrics.has_fsm:
        features.append("a finite-state machine with case-based "
                        "state transitions")
    if metrics.has_memory:
        features.append(f"{metrics.memories} memory array(s)")
    if metrics.case_statements and not metrics.has_fsm:
        features.append("case-based output selection")
    if metrics.loops:
        features.append("iterative (loop-based) logic")
    if metrics.functions:
        features.append(f"{metrics.functions} helper function(s)")
    if metrics.has_hierarchy:
        features.append(f"{metrics.instances} submodule instance(s)")
    if metrics.has_generate:
        features.append("generate-based replication")
    if features:
        sentences.append("The implementation uses " + ", ".join(features)
                         + ".")

    if module.parameters:
        names = ", ".join(p.name for p in module.parameters[:4]
                          if not p.local)
        if names:
            sentences.append(f"It is parameterised by {names}.")
    return " ".join(sentences)


def describe_source(code: str) -> str:
    """Describe source text (all modules)."""
    try:
        tree = ast_for(code)
    except ParseError:
        return ("A Verilog source file (could not be parsed for a "
                "detailed description).")
    if not tree.modules:
        return "A Verilog source file with no module declarations."
    descriptions = [describe_module(m) for m in tree.modules[:3]]
    return " ".join(descriptions)


# -- block-level granularity (design families) --------------------------


def _expr_name(expr) -> str:
    """A short printable name for an assignment target expression."""
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.Select):
        return _expr_name(expr.base)
    if isinstance(expr, ast.Concat):
        parts = [_expr_name(part) for part in expr.parts]
        named = [part for part in parts if part]
        return "{" + ", ".join(named) + "}" if named else ""
    return ""


def _sensitivity_phrase(sensitivity: Optional[ast.SensitivityList]) -> str:
    if sensitivity is None or sensitivity.star:
        return "combinational always block (@*)"
    edges = [item for item in sensitivity.items
             if item.edge in ("posedge", "negedge")]
    if edges:
        triggers = ", ".join(
            f"{item.edge} {_expr_name(item.expr) or '<expr>'}"
            for item in edges[:3])
        return f"clocked always block ({triggers})"
    return "level-sensitive always block"


def _block_phrase(item, module_name: str) -> Optional[str]:
    """One phrase per behavioural/structural module item; declaration
    items (nets, parameters) return None — they are interface detail
    the module-level description already covers."""
    if isinstance(item, ast.Always):
        return _sensitivity_phrase(item.sensitivity)
    if isinstance(item, ast.ContinuousAssign):
        target = _expr_name(item.target)
        return (f"continuous assignment driving '{target}'" if target
                else "continuous assignment")
    if isinstance(item, ast.Initial):
        return "initial block (simulation-time initialisation)"
    if isinstance(item, ast.Instance):
        return (f"instantiates submodule '{item.module_name}' "
                f"as '{item.instance_name}'")
    if isinstance(item, ast.GateInstance):
        return (f"gate-level primitive '{item.gate_kind}' "
                f"instance '{item.instance_name}'")
    if isinstance(item, ast.FunctionDecl):
        return f"helper function '{item.name}'"
    if isinstance(item, ast.TaskDecl):
        return f"task '{item.name}'"
    if isinstance(item, ast.GenerateFor):
        return (f"generate-for region replicating logic over "
                f"genvar '{item.genvar}'")
    if isinstance(item, ast.GenerateIf):
        return "conditional generate region"
    return None


#: Caps keeping block lists bounded on pathological inputs.
_MAX_DESCRIBED_MODULES = 3
_MAX_BLOCKS = 12


def describe_blocks(code: str) -> List[str]:
    """Block-granularity descriptions: one phrase per behavioural or
    structural item (always blocks, continuous assigns, instances,
    generate regions, …) across the first few modules.

    The finer granularity MG-Verilog pairs with module-level summaries;
    family reports attach both for each canonical member.  Returns
    ``[]`` when the source does not parse.
    """
    try:
        tree = ast_for(code)
    except ParseError:
        return []
    blocks: List[str] = []
    for module in tree.modules[:_MAX_DESCRIBED_MODULES]:
        prefix = (f"{module.name}: " if len(tree.modules) > 1 else "")
        for item in module.items:
            phrase = _block_phrase(item, module.name)
            if phrase:
                blocks.append(prefix + phrase)
            if len(blocks) >= _MAX_BLOCKS:
                return blocks
    return blocks


def family_description(code: str) -> Dict[str, Any]:
    """Multi-granularity description for a family's canonical member:
    the module-level paragraph plus the block-level phrase list."""
    return {"module": describe_source(code),
            "blocks": describe_blocks(code)}
