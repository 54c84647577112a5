"""Corpus DC08 bad: a REPRO_* environment switch read in src/."""

import os

DEBUG_DUMP = os.environ.get("REPRO_DEBUG_DUMP", "0") == "1"
