"""RISC-V-flavoured three-address IR: the substrate the BEC analysis runs on."""

from repro.ir.builder import IRBuilder
from repro.ir.defuse import UseChains, compute_use_chains
from repro.ir.dot import cfg_to_dot, ddg_to_dot
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.liveness import LivenessInfo, compute_liveness
from repro.ir.parser import parse_function, parse_instruction, parse_module
from repro.ir.printer import format_function
from repro.ir.randgen import GeneratorConfig, generate_function, random_inputs
from repro.ir.registers import ZERO
from repro.ir.validate import validate_function

__all__ = [
    "BasicBlock",
    "Function",
    "GeneratorConfig",
    "IRBuilder",
    "Instruction",
    "LivenessInfo",
    "Opcode",
    "UseChains",
    "ZERO",
    "cfg_to_dot",
    "compute_liveness",
    "compute_use_chains",
    "ddg_to_dot",
    "format_function",
    "generate_function",
    "parse_function",
    "parse_instruction",
    "parse_module",
    "random_inputs",
    "validate_function",
]
