"""Branch direction predictors and the return-address stack.

The paper's front end uses a **hashed perceptron** direction predictor
(Tarjan & Skadron), the design shipped in Samsung's Exynos M1 and other
commercial cores, and the only one the front end builds.  A bimodal
predictor is kept as the baseline the perceptron's tests compare against;
a return-address stack supplies return targets so that returns do not
depend on the BTB.
"""

from repro.branch.base import BranchDirectionPredictor
from repro.branch.bimodal import BimodalPredictor
from repro.branch.perceptron import HashedPerceptronPredictor
from repro.branch.ras import ReturnAddressStack

__all__ = [
    "BranchDirectionPredictor",
    "BimodalPredictor",
    "HashedPerceptronPredictor",
    "ReturnAddressStack",
]
