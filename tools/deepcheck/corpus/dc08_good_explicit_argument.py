"""Corpus DC08 good: the caller picks the path with an explicit argument."""


def kernel_name(batched: bool) -> str:
    return "batched" if batched else "scalar"
