"""Exception types shared across the package.  None marks a result integer
too long to print: str() raises the interpreter's ValueError, and cli.main
alone turns it into exit 4."""

SIZE_BITS = 10**4  # sizes of this many bits or more print as "at least 2**k"; count_up_to_order stops past it


class StructuralError(ValueError):
    """Malformed or mismatched input: wrong ambient dimensions, bad variable
    indices, coincident leads, or a violated operation precondition."""


class ParseError(ValueError):
    """Input the JSON decoder cannot take: a problem file that is not valid
    UTF-8, or JSON nested deeper than the decoder's recursion limit."""


class UnreadableFileError(Exception):
    """A problem file that cannot be opened or read; str() is its path."""


class ReductionLimitError(RuntimeError):
    """A rewriting loop exceeded its step budget.

    Termination is guaranteed for rankings that pass the compatibility audit;
    the budget is a safety valve against adversarial custom rankings.
    """

    def __init__(self, steps: int, state: str):
        super().__init__(f"reduction exceeded {steps} steps; last state: {state}")
        self.steps = steps
        self.state = state


class EnumerationLimitError(RuntimeError):
    """A phase would walk more items than its budget: for a census or slice,
    the n index entries of each of the m * C(n + order_bound, n) derivatives
    up to the bound.  A size past 2**SIZE_BITS may be a lower bound."""

    def __init__(self, phase: str, size: int, limit: int, items: str = "index entries"):
        shown = size if size.bit_length() < SIZE_BITS else f"at least 2**{size.bit_length() - 1}"  # past 3,000 digits
        super().__init__(f"{phase} would enumerate {shown} {items}, above max_enumeration {limit}")
        self.phase = phase
        self.size = size
        self.limit = limit

