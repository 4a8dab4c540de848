"""Type checks for values decoded from JSON wire forms and checkpoints."""


def json_typed(value: object, kind: type, name: str) -> object:
    """``value`` when it has the JSON type ``kind``, else :class:`TypeError`
    naming ``name``.

    A ``bool`` is no ``int`` (JSON ``true`` is not a number), and an integer
    is accepted as a ``float``, which it is converted to.
    """
    if kind is float and type(value) is int:
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TypeError(f"{name} must be {kind.__name__}, got {type(value).__name__}")
    return value
