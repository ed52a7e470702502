"""Bad: unpicklable callables smuggled into process fan-outs.

Both fail only at fan-out time, on a worker, with a pickle traceback
that points nowhere near this file.
"""

from repro.analysis.parallel import execute


def fanout_with_lambda(specs):
    return execute(specs, key=lambda spec: spec.seed)


def fanout_with_local_def(specs):
    def spec_seed(spec):
        return spec.seed

    return execute(specs, key=spec_seed)
