#include "util/parse.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace pcs {

namespace {

[[noreturn]] void reject(const std::string& what, const std::string& why) {
  throw std::invalid_argument(what + ": " + why);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// List values are comma-separated (a job line keeps them inside one JSON
// string); empty items and trailing commas are rejected.
std::vector<std::string> split_list(const std::string& s,
                                    const std::string& what) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    const std::string item(trim(std::string_view(s).substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start)));
    if (item.empty()) reject(what, "empty item in list '" + s + "'");
    items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

}  // namespace

u64 parse_u64_token(const std::string& text, const std::string& what) {
  // strtoull alone would skip whitespace, accept a sign (and wrap "-1" to
  // 2^64-1) and stop at the first non-digit; demand digits only.
  if (text.empty() ||
      !std::all_of(text.begin(), text.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      })) {
    reject(what, "malformed integer '" + text + "'");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) reject(what, "integer '" + text + "' out of range");
  return static_cast<u64>(v);
}

double parse_real_token(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() ||
      std::isspace(static_cast<unsigned char>(text.front())) != 0 ||
      end != text.c_str() + text.size() || !std::isfinite(v)) {
    reject(what, "malformed number '" + text + "'");
  }
  return v;
}

std::vector<u64> parse_u64_list(const std::string& text,
                                const std::string& what) {
  std::vector<u64> out;
  for (const std::string& item : split_list(text, what)) {
    out.push_back(parse_u64_token(item, what));
  }
  return out;
}

std::vector<double> parse_real_list(const std::string& text,
                                    const std::string& what) {
  std::vector<double> out;
  for (const std::string& item : split_list(text, what)) {
    out.push_back(parse_real_token(item, what));
  }
  return out;
}

u32 checked_u32(u64 value, const std::string& what) {
  if (value > 0xffffffffULL) {
    reject(what, "integer '" + std::to_string(value) + "' out of range");
  }
  return static_cast<u32>(value);
}

u32 checked_assoc(u64 ways, const std::string& what) {
  if (ways == 0 || ways > 0xffffffffULL) {
    reject(what, "associativity " + std::to_string(ways) + " out of range");
  }
  return static_cast<u32>(ways);
}

u64 kb_to_bytes(u64 kb, const std::string& what) {
  if (kb > ~u64{0} / 1024) {
    reject(what, "size " + std::to_string(kb) +
                     " KB overflows a 64-bit byte count");
  }
  return kb * 1024;
}

}  // namespace pcs
