#include "dist/gamma.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "numeric/special_functions.h"

namespace seplsm::dist {

GammaDistribution::GammaDistribution(double shape, double scale)
    : shape_(shape), scale_(scale) {
  assert(shape > 0.0 && scale > 0.0);
}

double GammaDistribution::Pdf(double x) const {
  if (x < 0.0) return 0.0;
  if (x == 0.0) {
    if (shape_ < 1.0) return std::numeric_limits<double>::infinity();
    return shape_ == 1.0 ? 1.0 / scale_ : 0.0;
  }
  double log_pdf = (shape_ - 1.0) * std::log(x) - x / scale_ -
                   numeric::LogGamma(shape_) - shape_ * std::log(scale_);
  return std::exp(log_pdf);
}

double GammaDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return numeric::RegularizedGammaP(shape_, x / scale_);
}

double GammaDistribution::Quantile(double q) const {
  return scale_ * numeric::RegularizedGammaPInverse(shape_, q);
}

double GammaDistribution::Sample(Rng& rng) const {
  // Marsaglia–Tsang squeeze for k >= 1; boost via U^{1/k} for k < 1.
  double k = shape_;
  double boost = 1.0;
  if (k < 1.0) {
    boost = std::pow(rng.NextDoubleOpen(), 1.0 / k);
    k += 1.0;
  }
  double d = k - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double z = rng.NextGaussian();
    double v = 1.0 + c * z;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = rng.NextDoubleOpen();
    if (u < 1.0 - 0.0331 * z * z * z * z ||
        std::log(u) < 0.5 * z * z + d * (1.0 - v + std::log(v))) {
      return boost * d * v * scale_;
    }
  }
}

std::string GammaDistribution::Name() const {
  std::ostringstream out;
  out << "gamma(shape=" << shape_ << ", scale=" << scale_ << ")";
  return out.str();
}

DistributionPtr GammaDistribution::Clone() const {
  return std::make_unique<GammaDistribution>(shape_, scale_);
}

}  // namespace seplsm::dist
