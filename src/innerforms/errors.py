"""Exception hierarchy shared across the package."""


class InnerFormsError(Exception):
    """Base class for all library errors."""


class GroupSpecError(InnerFormsError, ValueError):
    """Bad user input: unknown catalog tag, invalid rank, or a parse error."""


class GroupParseError(GroupSpecError):
    """Group expression could not be parsed; carries the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DatumError(InnerFormsError):
    """A based root datum violates its invariants (corrupted data)."""


class EnumerationLimitError(InnerFormsError):
    """A deliberate enumeration bound was exceeded: weyl_group_order above semisimple rank 6."""


class TransferError(InnerFormsError):
    """An inner-form transfer does not exist (e.g. a division degree d with d | n failing)."""
