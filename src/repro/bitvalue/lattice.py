"""The bit-value lattice and abstract bit vectors.

Each bit of a data point is abstracted to one of four lattice elements
(paper Fig. 3a)::

            TOP  (unknown / overdefined)
           /   \\
          0     1
           \\   /
            BOT  (undefined)

A :class:`BitVector` packs one lattice element per bit position of a
register, represented as three disjoint Python-int masks (``ones``,
``zeros``, ``bot``); any remaining bit is TOP.  This mirrors LLVM's
``KnownBits`` (plus an explicit bottom), and makes the transfer functions
in :mod:`repro.bitvalue.transfer` cheap mask arithmetic.

The paper's meet operator ∧ (Fig. 3b) merges the values reaching a join
point: BOT is the identity, and meeting 0 with 1 yields TOP.  Information
only ever rises in the lattice, which guarantees termination.
"""

import enum
import functools

from repro.ir.concrete import mask as width_mask


class Bit(enum.Enum):
    """A single abstract bit value."""

    BOT = "bot"
    ZERO = "0"
    ONE = "1"
    TOP = "top"

    def __str__(self):
        if self is Bit.BOT:
            return "?"
        if self is Bit.TOP:
            return "x"
        return self.value


def bit_meet(a, b):
    """The paper's ∧ operator on two :class:`Bit` values (Fig. 3b)."""
    if a is Bit.BOT:
        return b
    if b is Bit.BOT:
        return a
    if a is b:
        return a
    return Bit.TOP


class BitVector:
    """Abstract value of one register: one lattice element per bit."""

    __slots__ = ("width", "ones", "zeros", "bot")

    def __init__(self, width, ones=0, zeros=0, bot=0):
        m = width_mask(width)
        ones &= m
        zeros &= m
        bot &= m
        if ones & zeros or ones & bot or zeros & bot:
            raise ValueError("ones/zeros/bot masks must be disjoint")
        self.width = width
        self.ones = ones
        self.zeros = zeros
        self.bot = bot

    # -- constructors ---------------------------------------------------------
    #
    # top/bottom/const are interned: vectors are immutable (nothing in
    # the package writes the mask attributes after construction, and
    # __eq__/__hash__ are value-based), and the analyses call these
    # constructors once per state lookup — without interning,
    # compute_bit_values and _meet_states allocate a fresh bottom
    # vector per absent register.

    @classmethod
    def bottom(cls, width):
        """All bits undefined (no assignment seen yet)."""
        if cls is BitVector:
            return _interned_bottom(width)
        return cls(width, bot=width_mask(width))

    @classmethod
    def top(cls, width):
        """All bits unknown at compile time."""
        if cls is BitVector:
            return _interned_top(width)
        return cls(width)

    @classmethod
    def const(cls, width, value):
        """All bits known; *value* is truncated to *width*."""
        value &= width_mask(width)
        if cls is BitVector:
            return _interned_const(width, value)
        return cls(width, ones=value, zeros=width_mask(width) & ~value)

    @classmethod
    def from_string(cls, text):
        """Build from a string like ``"00x1"`` (MSB first, ``?`` = bottom)."""
        width = len(text)
        ones = zeros = bot = 0
        for offset, char in enumerate(text):
            position = width - 1 - offset
            if char == "1":
                ones |= 1 << position
            elif char == "0":
                zeros |= 1 << position
            elif char in ("x", "X", "t"):
                pass
            elif char == "?":
                bot |= 1 << position
            else:
                raise ValueError(f"bad bit character {char!r}")
        return cls(width, ones=ones, zeros=zeros, bot=bot)

    # -- queries ---------------------------------------------------------------

    @property
    def known(self):
        """Mask of bits known to be 0 or 1."""
        return self.ones | self.zeros

    @property
    def has_bottom(self):
        return self.bot != 0

    @property
    def is_constant(self):
        """True when every bit is known."""
        return self.known == width_mask(self.width)

    @property
    def value(self):
        """Concrete value if :attr:`is_constant`, else None."""
        if self.is_constant:
            return self.ones
        return None

    def bit(self, index):
        """The :class:`Bit` at position *index* (0 = LSB)."""
        if not 0 <= index < self.width:
            raise IndexError(f"bit index {index} out of range")
        probe = 1 << index
        if self.ones & probe:
            return Bit.ONE
        if self.zeros & probe:
            return Bit.ZERO
        if self.bot & probe:
            return Bit.BOT
        return Bit.TOP

    def min_unsigned(self):
        """Smallest unsigned value compatible with the known bits
        (bottom/unknown bits resolve to 0)."""
        return self.ones

    def max_unsigned(self):
        """Largest unsigned value compatible with the known bits."""
        return width_mask(self.width) & ~self.zeros

    def min_signed(self):
        """Smallest signed value compatible with the known bits."""
        sign = 1 << (self.width - 1)
        if self.zeros & sign:
            return self.ones            # sign fixed to 0: minimize the rest
        low = self.ones & ~sign
        return (low | sign) - (1 << self.width)

    def max_signed(self):
        """Largest signed value compatible with the known bits."""
        sign = 1 << (self.width - 1)
        if self.ones & sign:
            value = (width_mask(self.width) & ~self.zeros)
            return value - (1 << self.width)
        return width_mask(self.width) & ~self.zeros & ~sign

    def trailing_known_zeros(self):
        """Number of consecutive known-zero bits starting at the LSB."""
        count = 0
        probe = 1
        while count < self.width and self.zeros & probe:
            count += 1
            probe <<= 1
        return count

    # -- lattice operations -----------------------------------------------------

    def meet(self, other):
        """Per-bit ∧ of two vectors (paper Fig. 3b); *self* itself when
        *other* adds nothing to it."""
        self._check_width(other)
        ones = (self.ones & (other.ones | other.bot)) | \
               (other.ones & self.bot)
        zeros = (self.zeros & (other.zeros | other.bot)) | \
                (other.zeros & self.bot)
        bot = self.bot & other.bot
        if ones == self.ones and zeros == self.zeros and bot == self.bot:
            return self
        return BitVector(self.width, ones=ones, zeros=zeros, bot=bot)

    def le(self, other):
        """Lattice order: True if self is at or below *other* bit-wise
        (i.e. other carries the same or less information)."""
        self._check_width(other)
        for index in range(self.width):
            a, b = self.bit(index), other.bit(index)
            if a is b or b is Bit.TOP or a is Bit.BOT:
                continue
            return False
        return True

    def _check_width(self, other):
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}")

    # -- dunders ------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, BitVector) and self.width == other.width
                and self.ones == other.ones and self.zeros == other.zeros
                and self.bot == other.bot)

    def __hash__(self):
        return hash((self.width, self.ones, self.zeros, self.bot))

    def __str__(self):
        return "".join(
            str(self.bit(i)) for i in range(self.width - 1, -1, -1))

    def __repr__(self):
        return f"BitVector({self.width}, '{self}')"


@functools.lru_cache(maxsize=None)
def _interned_bottom(width):
    return BitVector(width, bot=width_mask(width))


@functools.lru_cache(maxsize=None)
def _interned_top(width):
    return BitVector(width)


@functools.lru_cache(maxsize=4096)
def _interned_const(width, value):
    return BitVector(width, ones=value, zeros=width_mask(width) & ~value)
