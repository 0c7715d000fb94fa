"""Quantify spurious association that survives regression adjustment.

Synthetic populations in which a single latent trait drives every observed
response are generated, regressed, and summarized to measure how much
apparent effect remains after confounders are regressed out; the same
fitting engine powers a recoding and staged-analysis pipeline for real
delimited survey files.
"""

__version__ = "0.3.0"

from . import ensemble, glm, ingest, metamodel
from .ensemble import *
from .glm import *
from .ingest import *
from .metamodel import *

__all__ = ["__version__", *metamodel.__all__, *glm.__all__, *ensemble.__all__,
           *ingest.__all__]
