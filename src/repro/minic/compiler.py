"""Compiler facade: mini-C source -> executable, analyzable program.

:func:`compile_source` runs the whole pipeline::

    lex -> parse -> semantic analysis -> codegen (virtual regs, calls
    inlined, data segment built) -> linear-scan register allocation

and returns a :class:`CompiledProgram`, which bundles everything the
analyses and the simulator need.
"""

from repro.ir.validate import validate_function
from repro.minic.codegen import CodeGenerator
from repro.minic.parser import parse_source
from repro.minic.regalloc import allocate_registers
from repro.minic.sema import analyze
from repro.opt import optimize as optimize_function


class CompiledProgram:
    """A compiled benchmark: physical-register function + memory image.

    Attributes
    ----------
    function:
        The finalized, register-allocated IR function (what the BEC
        analysis and the simulator run on).
    virtual_function:
        The pre-allocation function with virtual registers (useful for
        tests and for analyses at "LLVM virtual register" level).
    memory_image:
        Initial memory contents (data segment + zeroed spill slots).
    layout:
        ``name -> (address, length, type)`` for globals.
    param_regs:
        Physical registers that receive the entry function's parameters,
        in declaration order (``a0``, ``a1``, ...).
    """

    def __init__(self, function, virtual_function, memory_image, layout,
                 param_regs, data_end):
        self.function = function
        self.virtual_function = virtual_function
        self.memory_image = memory_image
        self.layout = layout
        self.param_regs = param_regs
        self.data_end = data_end

    def initial_regs(self, *args):
        """Map positional arguments onto the parameter registers."""
        if len(args) != len(self.param_regs):
            raise ValueError(
                f"expected {len(self.param_regs)} arguments, "
                f"got {len(args)}")
        return dict(zip(self.param_regs, args))


def compile_source(source, entry="main", bit_width=32, pool=None,
                   optimize=True):
    """Compile mini-C *source*; returns a :class:`CompiledProgram`.

    ``optimize`` (a bool) runs copy coalescing + DCE
    (:func:`repro.opt.optimize` at level 1), the paper-faithful default:
    post-regalloc LLVM code contains no redundant copies.  ``False``
    leaves the raw codegen output.
    """
    program = parse_source(source)
    analyzed = analyze(program, entry=entry)
    generator = CodeGenerator(analyzed, entry=entry, bit_width=bit_width)
    virtual_function, image, layout = generator.generate()
    validate_function(virtual_function)
    if optimize:
        virtual_function = optimize_function(virtual_function)
        validate_function(virtual_function)
    allocation = allocate_registers(virtual_function, pool=pool,
                                    spill_base=generator.data_end)
    validate_function(allocation.function)
    image = bytes(image) + b"\x00" * allocation.spill_size
    return CompiledProgram(
        function=allocation.function,
        virtual_function=virtual_function,
        memory_image=image,
        layout=layout,
        param_regs=list(allocation.function.params),
        data_end=allocation.spill_base + allocation.spill_size,
    )
