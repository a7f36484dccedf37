"""Exception types shared across the package."""


class GigagapError(Exception):
    """Base class for all domain errors raised by this package."""


class DataError(GigagapError):
    """Malformed or inconsistent input data."""


class DatasetValidationError(DataError):
    """Raised when a dataset fails validation.

    Carries the full validation report so callers can show every
    problem at once instead of the first one hit.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"dataset validation failed with {len(report.errors)} error(s)")


class InfeasibleCoverageError(GigagapError):
    """National coverage figure cannot be met by any per-region assignment."""

    def __init__(self, country, technology, national, feasible_low, feasible_high):
        self.country = country
        self.technology = technology
        self.national = national
        self.feasible_low = feasible_low
        self.feasible_high = feasible_high
        super().__init__(
            f"national coverage {national:.6f} for {country}/{technology} is outside "
            f"the feasible range [{feasible_low:.6f}, {feasible_high:.6f}] implied by "
            f"the regional intervals"
        )


class CostTableError(GigagapError):
    """Cost reference data cannot support the requested cost table."""

    def __init__(self, missing):
        self.missing = list(missing)
        cells = ", ".join(str(m) for m in self.missing)
        super().__init__(f"no cost reference covers: {cells}")
