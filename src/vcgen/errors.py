"""The one error type for bad input. ``vcgen.cli`` maps it, and ``OSError``,
to exit code 2; any other exception is a bug and keeps its traceback. This
module imports nothing, so the CLI can import it before numpy loads."""


class InputError(ValueError):
    """Input the program cannot use; the message names the file, line, flag,
    field or tensor at fault."""
