// Checked numeric CLI flags, shared by distsketch_service and
// distsketch_stream so both read numbers the same one way.
#pragma once

#include <charconv>
#include <iostream>
#include <limits>
#include <string_view>
#include <system_error>

namespace ds::tools {

/// The one way a numeric flag is read: the whole of `value` must parse
/// as a T in [lo, hi].  Non-numeric input, trailing garbage and
/// out-of-range values (e.g. --port 70000, which a bare cast would wrap
/// to 4464) are reported on stderr and handed to `usage`, which must not
/// return (both CLIs print their usage and exit 2).
template <typename T, typename Usage>
T parse_number(std::string_view key, std::string_view value, Usage&& usage,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T parsed{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  // The negated comparison also rejects a parsed NaN.
  if (ec != std::errc() || ptr != end || !(parsed >= lo && parsed <= hi)) {
    std::cerr << key << " '" << value
              << "' is not a number in [" << lo << ", " << hi << "]\n";
    usage();
  }
  return parsed;
}

}  // namespace ds::tools
