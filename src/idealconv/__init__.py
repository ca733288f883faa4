"""Computable ideal convergence at desk scale.

Symbolic subsets of N with exact prefix evaluation, lower semicontinuous
submeasures and their exhaustive ideals, meagerness witnesses, cluster and
limit point classification for rational-box sequences, constructive
subsequence/rearrangement builders with exact audits, and finite-extension
games whose winning moves carry rational certificates.

Quick start::

    from idealconv import builtin, zoo, gamma_estimate, AnalysisParams

    Z = builtin("density-zero")
    report = gamma_estimate(zoo.char_powers2(), Z, AnalysisParams())
    report.points()          # [(Fraction(0, 1),)]
"""

from . import natset, submeasure, ideals, meager, sequences, transforms, games, zoo
from .natset import (BlockPartition, BlockUnion, Cofinite, Complement,
                     Finite, HorizonExceeded, Intersection, NatSet, PowersOf,
                     PrefixBitmap, Progression, Tested, Union,
                     partition_from_tag)
from .submeasure import (CountingCap, DensityFamily, Lscsm, NormEstimate,
                         RunningDensity, WeightedSum, norm_estimate, phi)
from .ideals import (Decision, DecisionParams, IdealHandle, Verdict, builtin,
                     builtin_names, decide_membership, nu2)
from .meager import (WitnessIntervals, WitnessRefuted, build_witness,
                     fk_holds, verify_witness)
from .sequences import (Alphabet, AnalysisParams, ClusterReport,
                        ConvergenceReport, RadiusSchedule, SequenceSpec,
                        complement_indicator_set, gamma_estimate,
                        ideal_convergence_check, indicator_set,
                        lambda_estimate, lambda_q_estimate,
                        limit_points_estimate, u_frak)
from .transforms import (BuildResult, ExhaustedA, HypothesisFailed,
                         MassUnavailable, NotALimitPoint, PermutationMap,
                         SubsequenceMap, TailRule, apply, cluster_adding_pi,
                         cluster_adding_sigma, cluster_preserving_pi,
                         cluster_preserving_sigma, generic_permutation,
                         generic_subsequence, identity_sigma,
                         limit_witness_extraction, odd_even_swap, preimage,
                         random_pi, random_sigma)
from .games import GameTarget, GameTranscript, SupplyExhausted, run_game

__version__ = "0.1.0"
