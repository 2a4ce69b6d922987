#ifndef SEPLSM_NUMERIC_SPECIAL_FUNCTIONS_H_
#define SEPLSM_NUMERIC_SPECIAL_FUNCTIONS_H_

namespace seplsm::numeric {

/// ln |Γ(x)|. Thread-safe, unlike std::lgamma, which writes the global
/// `signgam` and so races when two series fit a distribution at once.
double LogGamma(double x);

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), a > 0,
/// x >= 0. Series expansion for x < a+1, continued fraction otherwise
/// (Numerical Recipes style). Accuracy ~1e-12.
double RegularizedGammaP(double a, double x);

/// Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Inverse of P(a, ·): smallest x with P(a, x) >= p, p in (0, 1).
double RegularizedGammaPInverse(double a, double p);

}  // namespace seplsm::numeric

#endif  // SEPLSM_NUMERIC_SPECIAL_FUNCTIONS_H_
