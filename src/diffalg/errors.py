"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Malformed or mismatched input: wrong ambient dimensions, bad variable
    indices, coincident leads, or a violated operation precondition."""


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
    """A census or slice would walk more derivatives than its budget: the
    size is m * C(n + order_bound, n), every derivative up to the bound."""

    def __init__(self, phase: str, size: int, limit: int):
        super().__init__(f"{phase} would enumerate {size} derivatives, above max_enumeration {limit}")
        self.phase = phase
        self.size = size
        self.limit = limit
