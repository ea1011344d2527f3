#include "src/util/rational.h"

#include <cmath>
#include <utility>

namespace phom {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  PHOM_CHECK_MSG(!den_.is_zero(), "Rational with zero denominator");
  if (den_.is_negative()) {
    num_ = num_.Negated();
    den_ = den_.Negated();
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

Rational Rational::FromDouble(double value) {
  PHOM_CHECK_MSG(std::isfinite(value), "Rational::FromDouble of non-finite");
  if (value == 0.0) return Rational::Zero();
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = mantissa·2^exp
  // 53 bits make the scaled mantissa exactly integral (|mantissa| ∈ [0.5, 1)).
  const int64_t m = static_cast<int64_t>(std::ldexp(mantissa, 53));
  const int shift = exp - 53;
  if (shift >= 0) {
    return Rational(BigInt(m).ShiftLeft(static_cast<uint64_t>(shift)),
                    BigInt(1));
  }
  return Rational(BigInt(m), BigInt::Pow2(static_cast<uint64_t>(-shift)));
}

bool Rational::IsProbability() const {
  return !num_.is_negative() && num_ <= den_;
}

Rational Rational::operator+(const Rational& other) const {
  return Rational(num_ * other.den_ + other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator-(const Rational& other) const {
  return Rational(num_ * other.den_ - other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator*(const Rational& other) const {
  return Rational(num_ * other.num_, den_ * other.den_);
}

Rational Rational::operator/(const Rational& other) const {
  PHOM_CHECK_MSG(!other.is_zero(), "Rational division by zero");
  return Rational(num_ * other.den_, den_ * other.num_);
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = out.num_.Negated();
  return out;
}

Rational Rational::Pow(uint64_t exponent) const {
  Rational result = One();
  Rational base = *this;
  while (exponent) {
    if (exponent & 1) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

int Rational::Compare(const Rational& other) const {
  return (num_ * other.den_).Compare(other.num_ * den_);
}

Result<Rational> Rational::FromString(std::string_view text) {
  if (text.empty()) return Status::Invalid("empty rational literal");
  size_t slash = text.find('/');
  if (slash != std::string_view::npos) {
    PHOM_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(text.substr(0, slash)));
    PHOM_ASSIGN_OR_RETURN(BigInt den,
                          BigInt::FromString(text.substr(slash + 1)));
    if (den.is_zero()) return Status::Invalid("zero denominator: " +
                                              std::string(text));
    return Rational(std::move(num), std::move(den));
  }
  size_t dot = text.find('.');
  if (dot == std::string_view::npos) {
    PHOM_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(text));
    return Rational(std::move(num), BigInt(1));
  }
  std::string digits(text.substr(0, dot));
  std::string_view frac = text.substr(dot + 1);
  if (frac.empty()) return Status::Invalid("trailing dot: " + std::string(text));
  digits += std::string(frac);
  PHOM_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(digits));
  BigInt den(1);
  for (size_t i = 0; i < frac.size(); ++i) den = den * BigInt(10);
  return Rational(std::move(num), std::move(den));
}

std::string Rational::ToString() const {
  if (den_ == BigInt(1)) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

std::string Rational::ToDecimalString(int digits) const {
  BigInt scale(1);
  for (int i = 0; i < digits; ++i) scale = scale * BigInt(10);
  BigInt scaled = num_.Abs() * scale / den_;
  std::string body = scaled.ToString();
  if (static_cast<int>(body.size()) <= digits) {
    body.insert(0, digits + 1 - body.size(), '0');
  }
  body.insert(body.size() - digits, ".");
  if (num_.is_negative()) body.insert(0, "-");
  return body;
}

double Rational::ToDouble() const {
  // Scale so both operands fit comfortably in double range.
  uint64_t num_bits = num_.BitLength();
  uint64_t den_bits = den_.BitLength();
  uint64_t excess = 0;
  uint64_t max_bits = std::max(num_bits, den_bits);
  if (max_bits > 900) excess = max_bits - 900;
  BigInt n = num_.ShiftRight(excess);
  BigInt d = den_.ShiftRight(excess);
  if (d.is_zero()) return 0.0;
  return n.ToDouble() / d.ToDouble();
}

size_t Rational::Hash() const {
  size_t h = num_.Hash();
  h ^= den_.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace phom
