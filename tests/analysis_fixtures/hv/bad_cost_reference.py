"""COV001 fixture: references that don't resolve to any primitive."""


def charge_typo(pcpu, costs):
    """`trap_to_el3` is not a primitive — a typo that only explodes when
    this exact path executes."""
    yield pcpu.op("trap", costs.trap_to_el3, "trap")  # expect: COV001


def charge_method(costs):
    """Cost-model methods are legitimate references."""
    return costs.full_save_cycles()
