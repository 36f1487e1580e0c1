"""Exception types shared across the package, and `check_budget`, the one
place that raises ResourceBudgetError: every exact path asks it before it
starts work that grows past what a run can hold.  `check_power` asks it
about a power q^e from its exponent, before the power is built.
`format_rational` writes a rational into an error message.
"""

import decimal
from fractions import Fraction

# Most centers, ball points, span members, trial jobs or pair-count terms
# that an exact path takes on.
ENUMERATION_BUDGET = 2 ** 24


class ParameterError(ValueError):
    """A parameter is invalid or out of its documented domain."""


class ResourceBudgetError(RuntimeError):
    """An operation would exceed its enumeration budget.

    Raised instead of silently truncating; callers can retry with a
    Monte Carlo surrogate or smaller parameters.
    """


def check_budget(what: str, need: int, budget: int = ENUMERATION_BUDGET) -> None:
    """ResourceBudgetError "<what> = <need> exceeds the budget of
    <budget>" when need > budget, the budget written 2^k when it is a
    power of two.  A need of more than 256 bits is written ">= 2^k": its
    digits would say nothing more, and past 4300 of them str() refuses."""
    if need > budget:
        shown = (f"2^{budget.bit_length() - 1}" if budget.bit_count() == 1
                 else budget)
        size = (f"= {need}" if need.bit_length() <= 256
                else f">= 2^{need.bit_length() - 1}")
        raise ResourceBudgetError(f"{what} {size} exceeds the budget of {shown}")


def check_power(what: str, q: int, exponent: int, factor: int = 1,
                budget: int = ENUMERATION_BUDGET) -> int:
    """q^exponent, once `check_budget(what, factor * q^exponent, budget)`
    passes (q >= 2, factor >= 1).  An exponent past the budget's bits plus
    256 is cut to that cap first: q^cap has over 256 bits and passes the
    budget, so the refusal prints a true ">= 2^k" without the power."""
    cap = budget.bit_length() + 257
    power = q ** (exponent if exponent < cap else cap)
    check_budget(what, factor * power, budget)
    return power


_SHOWN = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def format_rational(x: Fraction) -> str:
    """str(x) when its numerator and denominator fit in 128 bits; a longer
    x in scientific notation to six significant digits, with "~" in front
    when that rounds it ("1e+400", "~6.66667e+399").  Its digits would say
    nothing more, and past 4300 of them str() refuses."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) <= 128:
        return str(x)
    context = _SHOWN.copy()
    shown = context.divide(decimal.Decimal(x.numerator),
                           decimal.Decimal(x.denominator)).normalize(context)
    return ("~" if context.flags[decimal.Inexact] else "") + format(shown, "e")
