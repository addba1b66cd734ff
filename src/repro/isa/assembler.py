"""Textual assembler/disassembler for the GenDP ISA.

The text forms mirror Table 3's assembly column and a compact VLIW
syntax; the pair round-trips exactly (``assemble(disassemble(p)) == p``)
which the property tests rely on.

Control examples::

    addi a0 a0 #1
    li r3 #-5
    mv s[a2] in
    blt a0 a1 -4
    set 0 6
    halt

Compute examples::

    { tree L:cmp_gt(r1,r2,r3,r4) R:copy(r5) T:add -> r7 | nop }
    { mul mul(r1,#400) -> r2 | tree R:max(r3,r4) -> r5 }
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.dfg.graph import Opcode
from repro.isa.compute import CUInstruction, Imm, Operand, Reg, SlotOp, VLIWInstruction
from repro.isa.control import (
    BRANCH_OPS,
    ControlInstruction,
    ControlOp,
    Loc,
    PORT_SPACES,
    Space,
)

_LOC_PATTERN = re.compile(r"^([a-z]+)(?:\[(a\d+)\]|(\d+))?$")
_SLOT_PATTERN = re.compile(r"^(\w+)\(([^)]*)\)$")


class AssemblyError(ValueError):
    """Raised on unparseable assembly text."""


# ----------------------------------------------------------------------
# locations


def _loc_to_text(loc: Loc) -> str:
    return loc.text()


def _parse_loc(text: str) -> Loc:
    match = _LOC_PATTERN.match(text.strip())
    if not match:
        raise AssemblyError(f"bad location {text!r}")
    space_text, indirect_reg, literal = match.groups()
    try:
        space = Space(space_text)
    except ValueError as exc:
        raise AssemblyError(f"unknown space in {text!r}") from exc
    if space in PORT_SPACES:
        if indirect_reg or literal:
            raise AssemblyError(f"port {space.value} takes no index: {text!r}")
        return Loc(space)
    if indirect_reg is not None:
        return Loc(space, int(indirect_reg[1:]), indirect=True)
    if literal is None:
        raise AssemblyError(f"indexed space needs an index: {text!r}")
    return Loc(space, int(literal))


# ----------------------------------------------------------------------
# control


def disassemble_control(instruction: ControlInstruction) -> str:
    """One control instruction to its assembly line."""
    op = instruction.op
    if op is ControlOp.ADD:
        return f"add a{instruction.rd} a{instruction.rs1} a{instruction.rs2}"
    if op is ControlOp.ADDI:
        return f"addi a{instruction.rd} a{instruction.rs1} #{instruction.imm}"
    if op is ControlOp.LI:
        return f"li {_loc_to_text(instruction.dest)} #{instruction.imm}"
    if op is ControlOp.MV:
        return f"mv {_loc_to_text(instruction.dest)} {_loc_to_text(instruction.src)}"
    if op in BRANCH_OPS:
        return f"{op.value} a{instruction.rs1} a{instruction.rs2} {instruction.offset}"
    if op is ControlOp.SET:
        return f"set {instruction.target} {instruction.count}"
    return op.value  # no-op / halt


def assemble_control(line: str) -> ControlInstruction:
    """Parse one control assembly line."""
    tokens = line.split()
    if not tokens:
        raise AssemblyError("empty control line")
    mnemonic = tokens[0]
    if mnemonic == "add":
        return ControlInstruction(
            ControlOp.ADD,
            rd=_areg(tokens[1]),
            rs1=_areg(tokens[2]),
            rs2=_areg(tokens[3]),
        )
    if mnemonic == "addi":
        return ControlInstruction(
            ControlOp.ADDI,
            rd=_areg(tokens[1]),
            rs1=_areg(tokens[2]),
            imm=_imm(tokens[3]),
        )
    if mnemonic == "li":
        return ControlInstruction(
            ControlOp.LI, dest=_parse_loc(tokens[1]), imm=_imm(tokens[2])
        )
    if mnemonic == "mv":
        return ControlInstruction(
            ControlOp.MV, dest=_parse_loc(tokens[1]), src=_parse_loc(tokens[2])
        )
    if mnemonic in ("beq", "bne", "bge", "blt"):
        return ControlInstruction(
            ControlOp(mnemonic),
            rs1=_areg(tokens[1]),
            rs2=_areg(tokens[2]),
            offset=int(tokens[3]),
        )
    if mnemonic == "set":
        return ControlInstruction(
            ControlOp.SET, target=int(tokens[1]), count=int(tokens[2])
        )
    if mnemonic == "no-op":
        return ControlInstruction(ControlOp.NOOP)
    if mnemonic == "halt":
        return ControlInstruction(ControlOp.HALT)
    raise AssemblyError(f"unknown control mnemonic {mnemonic!r}")


def _areg(token: str) -> int:
    if not token.startswith("a"):
        raise AssemblyError(f"expected address register, got {token!r}")
    return int(token[1:])


def _imm(token: str) -> int:
    if not token.startswith("#"):
        raise AssemblyError(f"expected immediate, got {token!r}")
    return int(token[1:])


# ----------------------------------------------------------------------
# compute


def _parse_operand(token: str) -> Operand:
    token = token.strip()
    if token.startswith("#"):
        return Imm(int(token[1:]))
    if token.startswith("r"):
        return Reg(int(token[1:]))
    raise AssemblyError(f"bad compute operand {token!r}")


def _parse_slot(token: str) -> SlotOp:
    match = _SLOT_PATTERN.match(token.strip())
    if not match:
        raise AssemblyError(f"bad slot op {token!r}")
    opcode_text, args_text = match.groups()
    try:
        opcode = Opcode(opcode_text)
    except ValueError as exc:
        raise AssemblyError(f"unknown opcode {opcode_text!r}") from exc
    operands = tuple(
        _parse_operand(arg) for arg in args_text.split(",") if arg.strip()
    )
    return SlotOp(opcode, operands)


def _parse_cu(text: str) -> Optional[CUInstruction]:
    text = text.strip()
    if text == "nop":
        return None
    head, arrow, dest_text = text.rpartition("->")
    if not arrow:
        raise AssemblyError(f"CU way missing destination: {text!r}")
    dest = _parse_operand(dest_text)
    if not isinstance(dest, Reg):
        raise AssemblyError("CU destination must be a register")
    head = head.strip()
    if head.startswith("mul "):
        return CUInstruction(kind="mul", dest=dest, mul=_parse_slot(head[4:]))
    if not head.startswith("tree "):
        raise AssemblyError(f"unknown CU way {text!r}")
    left = right = None
    root = None
    root_swapped = False
    for part in head[5:].split():
        if part.startswith("L:"):
            left = _parse_slot(part[2:])
        elif part.startswith("R:"):
            right = _parse_slot(part[2:])
        elif part.startswith("T:"):
            root = Opcode(part[2:])
        elif part.startswith("T~"):
            root = Opcode(part[2:])
            root_swapped = True
        else:
            raise AssemblyError(f"bad tree slot tag {part!r}")
    return CUInstruction(
        kind="tree",
        dest=dest,
        left=left,
        right=right,
        root=root,
        root_swapped=root_swapped,
    )


def disassemble_vliw(bundle: VLIWInstruction) -> str:
    """One VLIW bundle to its assembly line."""
    return bundle.text()


def assemble_vliw(line: str) -> VLIWInstruction:
    """Parse one VLIW assembly line ``{ way | way }``."""
    line = line.strip()
    if not (line.startswith("{") and line.endswith("}")):
        raise AssemblyError(f"VLIW bundle must be braced: {line!r}")
    inner = line[1:-1]
    parts = inner.split("|")
    if len(parts) != 2:
        raise AssemblyError(f"VLIW bundle needs exactly two ways: {line!r}")
    return VLIWInstruction(cu0=_parse_cu(parts[0]), cu1=_parse_cu(parts[1]))
