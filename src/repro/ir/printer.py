"""Pretty-printing of IR functions (round-trips through the parser)."""


def format_function(function, show_pp=False):
    """Render *function* as parseable text.

    With ``show_pp=True`` each instruction is annotated with its program
    point, matching the ``p0:``-style labels used in the paper's figures
    (annotated output is for humans; it does not round-trip).
    """
    lines = []
    header = f"func {function.name} width={function.bit_width}"
    if function.params:
        header += " params=" + ",".join(function.params)
    lines.append(header)
    for block in function.blocks:
        lines.append(f"{block.label}:")
        for instruction in block.instructions:
            if show_pp and instruction.pp is not None:
                lines.append(f"    p{instruction.pp}: {instruction}")
            else:
                lines.append(f"    {instruction}")
    return "\n".join(lines) + "\n"
