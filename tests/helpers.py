"""Helpers shared by the test modules."""
from bgshift import trainer as tr
from bgshift.scenario import split_corpus


def run_from_scratch(corpus, eval_corpus, schedule, protocol, config):
    """One run as the harness makes it: split ``corpus``, train step 0, continue."""
    first = tr.first_step(split_corpus(corpus, schedule, protocol), eval_corpus, schedule, config)
    return first, tr.run_incremental(first, eval_corpus, schedule, config)
