#include "testkit/spec.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "common/parse_error.hpp"
#include "common/rng.hpp"

namespace oagrid::testkit {
namespace {

/// SplitMix64 finalizer — decorrelates (root_seed, index) into a seed for an
/// independent xoshiro stream without advancing a shared generator O(index)
/// times.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename T>
void clamp_field(T& value, T lo, T hi) noexcept {
  value = std::clamp(value, lo, hi);
}

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw_parse_error("spec", "bad value '" + text + "' for field '" + key +
                                  "' (want an unsigned integer)");
  return value;
}

long long parse_int(const std::string& key, const std::string& text) {
  long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw_parse_error("spec", "bad value '" + text + "' for field '" + key +
                                  "' (want an integer)");
  return value;
}

bool parse_bool(const std::string& key, const std::string& text) {
  if (text == "1" || text == "true") return true;
  if (text == "0" || text == "false") return false;
  throw_parse_error(
      "spec", "bad value '" + text + "' for field '" + key + "' (want 0 or 1)");
}

}  // namespace

void CaseSpec::clamp() noexcept {
  if (seed == 0) seed = 1;
  clamp_field(clusters, 1, 4);
  clamp_field(scenarios, Count{1}, Count{8});
  clamp_field(months, Count{1}, Count{12});
  clamp_field(net_kind, 0, 4);
  clamp_field(fault_kind, 0, 4);
  clamp_field(checkpoint_months, 1, 4);
  clamp_field(recovery, 0, 2);
  clamp_field(heuristic, 0, 3);
  clamp_field(campaigns, 0, 4);
  clamp_field(kills, 0, 3);
  clamp_field(snapshot_every, Count{0}, Count{8});
}

std::string CaseSpec::encode() const {
  std::ostringstream out;
  out << "seed=" << seed << ",clusters=" << clusters
      << ",scenarios=" << scenarios << ",months=" << months
      << ",divisible=" << (divisible_tables ? 1 : 0) << ",net=" << net_kind
      << ",fault=" << fault_kind << ",checkpoint=" << checkpoint_months
      << ",recovery=" << recovery << ",heuristic=" << heuristic
      << ",campaigns=" << campaigns
      << ",kills=" << kills << ",group_commit=" << (group_commit ? 1 : 0)
      << ",snapshot=" << snapshot_every;
  return out.str();
}

CaseSpec CaseSpec::decode(const std::string& text) {
  CaseSpec spec;
  std::istringstream in(text);
  std::string field;
  while (std::getline(in, field, ',')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      throw_parse_error("spec",
                        "expected 'key=value', got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "seed")
      spec.seed = parse_u64(key, value);
    else if (key == "clusters")
      spec.clusters = static_cast<int>(parse_int(key, value));
    else if (key == "scenarios")
      spec.scenarios = parse_int(key, value);
    else if (key == "months")
      spec.months = parse_int(key, value);
    else if (key == "divisible")
      spec.divisible_tables = parse_bool(key, value);
    else if (key == "net")
      spec.net_kind = static_cast<int>(parse_int(key, value));
    else if (key == "fault")
      spec.fault_kind = static_cast<int>(parse_int(key, value));
    else if (key == "checkpoint")
      spec.checkpoint_months = static_cast<int>(parse_int(key, value));
    else if (key == "recovery")
      spec.recovery = static_cast<int>(parse_int(key, value));
    else if (key == "heuristic")
      spec.heuristic = static_cast<int>(parse_int(key, value));
    else if (key == "campaigns")
      spec.campaigns = static_cast<int>(parse_int(key, value));
    else if (key == "kills")
      spec.kills = static_cast<int>(parse_int(key, value));
    else if (key == "group_commit")
      spec.group_commit = parse_bool(key, value);
    else if (key == "snapshot")
      spec.snapshot_every = parse_int(key, value);
    else
      throw_parse_error("spec", "unknown field '" + key + "'");
  }
  spec.clamp();
  return spec;
}

CaseSpec spec_for_case(std::uint64_t root_seed, std::uint64_t index) {
  Rng rng(mix64(root_seed ^ mix64(index)));
  CaseSpec spec;
  spec.seed = rng() | 1;  // keep 0 out of every downstream seed
  spec.clusters = static_cast<int>(rng.uniform_int(1, 4));
  spec.scenarios = rng.uniform_int(1, 8);
  spec.months = rng.uniform_int(1, 12);
  spec.divisible_tables = rng.uniform() < 0.35;
  spec.net_kind = static_cast<int>(rng.uniform_int(0, 4));
  spec.fault_kind = static_cast<int>(rng.uniform_int(0, 4));
  spec.checkpoint_months = static_cast<int>(rng.uniform_int(1, 4));
  spec.recovery = static_cast<int>(rng.uniform_int(0, 2));
  spec.heuristic = static_cast<int>(rng.uniform_int(0, 3));
  spec.campaigns = static_cast<int>(rng.uniform_int(0, 4));
  spec.kills = static_cast<int>(rng.uniform_int(0, 3));
  spec.group_commit = rng.uniform() < 0.5;
  spec.snapshot_every = rng.uniform_int(0, 8);
  spec.clamp();
  return spec;
}

std::vector<CaseSpec> shrink_candidates(const CaseSpec& spec) {
  std::vector<CaseSpec> out;
  const auto push = [&](auto&& mutate) {
    CaseSpec candidate = spec;
    mutate(candidate);
    candidate.clamp();
    if (!(candidate == spec)) out.push_back(std::move(candidate));
  };
  // Aggressive first: drop whole subsystems, halve the workload...
  push([](CaseSpec& s) { s.fault_kind = 0; });
  push([](CaseSpec& s) { s.net_kind = 0; });
  push([](CaseSpec& s) { s.campaigns = 0; });
  push([](CaseSpec& s) { s.scenarios /= 2; });
  push([](CaseSpec& s) { s.months /= 2; });
  push([](CaseSpec& s) { s.clusters /= 2; });
  // ...then the fine-grained single steps.
  if (spec.net_kind >= 2)  // keep a network, make it free (never re-add one)
    push([](CaseSpec& s) { s.net_kind = 1; });
  push([](CaseSpec& s) { s.scenarios -= 1; });
  push([](CaseSpec& s) { s.months -= 1; });
  push([](CaseSpec& s) { s.clusters -= 1; });
  push([](CaseSpec& s) { s.campaigns -= 1; });
  push([](CaseSpec& s) { s.kills = 0; });
  push([](CaseSpec& s) { s.snapshot_every = 0; });
  push([](CaseSpec& s) { s.group_commit = false; });
  push([](CaseSpec& s) { s.checkpoint_months = 1; });
  push([](CaseSpec& s) { s.divisible_tables = true; });
  return out;
}

}  // namespace oagrid::testkit
