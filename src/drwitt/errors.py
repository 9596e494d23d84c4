"""Exception types shared across the package.

The CLI maps DrwittError subclasses to exit code 1 (operational error);
a verification verb that runs fine but finds the assertion false returns
exit code 2 itself.
"""


class DrwittError(Exception):
    pass


class ParseError(DrwittError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


class NonQuasiHomogeneous(DrwittError):
    pass


class UnsupportedKind(DrwittError):
    pass


class LengthMismatch(DrwittError):
    pass


class LengthUnderflow(DrwittError):
    pass


class TorsionCoefficients(DrwittError):
    pass


class PrecisionExhausted(DrwittError):
    pass


class InexactDivision(DrwittError):
    pass


class UnsupportedBaseChange(DrwittError):
    pass


class NonInjectiveTransitions(DrwittError):
    pass


class HomSetTooLarge(DrwittError):
    pass


class DegenerationFailed(DrwittError):
    pass
