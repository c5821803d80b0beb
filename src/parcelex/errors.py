"""The toolkit's one exception type."""


class ParcelexError(ValueError):
    """A fault in an input (a file, a config value, an argument); the CLI maps it to exit 1."""


def decode_utf8(data: bytes, where) -> str:
    """``data`` as UTF-8 text; an invalid byte is an error naming ``where`` and the offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParcelexError(f"{where}: not valid UTF-8 at byte {exc.start}") from None
