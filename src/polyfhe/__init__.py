"""polyfhe: slot-vector HE simulation, polynomial template protection,
encrypted cosine search, and soft-biometric leakage metrics."""

from . import backend, errors, invsqrt, leakage, pipeline, polyprotect, similarity, summation
from .backend import EncryptionContext, PlainVector, SlotVector, decrypt, encrypt
from .invsqrt import PolyApprox, fit_inv_sqrt
from .polyprotect import PolyProtectParams, gen_params, protect_plain
from .similarity import NormalizationPlan, cosine_plain, make_normalization_plan

__version__ = "0.1.0"
