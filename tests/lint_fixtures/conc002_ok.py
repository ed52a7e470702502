"""Ok: fan-out arguments are module-level (picklable) or plain data."""

from repro.analysis.parallel import execute


def spec_seed(spec):
    return spec.seed


def fanout_with_function(specs):
    return execute(specs, key=spec_seed)


def fanout_with_plain_data(specs):
    return execute(list(specs), jobs=2)
