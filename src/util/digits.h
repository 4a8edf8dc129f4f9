#ifndef MVIEW_UTIL_DIGITS_H_
#define MVIEW_UTIL_DIGITS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace mview::util {

/// The largest magnitude an integer literal may have: 2^63, which is
/// `INT64_MIN`'s and so fits only under a unary minus.
inline constexpr uint64_t kMaxLiteralMagnitude = uint64_t{1} << 63;

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Reads the run of ASCII digits starting at `text[*pos]` and leaves `*pos`
/// just past it.  Returns false when the run's value exceeds
/// `kMaxLiteralMagnitude` (any run of 20 or more significant digits), else
/// stores the value in `*magnitude`.  An empty run reads as 0; callers
/// check that a digit is there first.
inline bool ScanDigits(std::string_view text, size_t* pos,
                       uint64_t* magnitude) {
  size_t i = *pos;
  uint64_t value = 0;
  bool fits = true;
  for (; i < text.size() && IsDigit(text[i]); ++i) {
    const uint64_t digit = static_cast<uint64_t>(text[i] - '0');
    // value * 10 + digit <= 2^63, without overflowing on the way.
    if (fits && value <= (kMaxLiteralMagnitude - digit) / 10) {
      value = value * 10 + digit;
    } else {
      fits = false;
    }
  }
  *pos = i;
  if (fits) *magnitude = value;
  return fits;
}

/// Applies a sign to a magnitude from `ScanDigits`.  Returns false when the
/// result does not fit an `int64_t`: 2^63 without the minus.
inline bool SignedFromMagnitude(uint64_t magnitude, bool negative,
                                int64_t* out) {
  constexpr uint64_t kMaxPositive =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  if (!negative) {
    if (magnitude > kMaxPositive) return false;
    *out = static_cast<int64_t>(magnitude);
    return true;
  }
  if (magnitude > kMaxLiteralMagnitude) return false;
  // -(m - 1) - 1 stays in range for m = 2^63.
  *out = magnitude == 0 ? 0 : -static_cast<int64_t>(magnitude - 1) - 1;
  return true;
}

}  // namespace mview::util

#endif  // MVIEW_UTIL_DIGITS_H_
