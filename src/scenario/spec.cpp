#include "scenario/spec.hpp"

#include <algorithm>
#include <charconv>
#include <span>

#include "nn/model_zoo.hpp"
#include "util/strings.hpp"

namespace cmdare::scenario {
namespace {

using Error = std::optional<std::string>;
constexpr std::size_t kNpos = std::string_view::npos;

// --- numbers -------------------------------------------------------------

/// A closed interval a number must lie in (NaN lies in none); `want`
/// describes it in messages.
struct Range {
  double min;
  double max;
  const char* want;
};

constexpr double kHuge = 1e18;
constexpr double kTiny = 1e-9;  // the least value of a "> 0" key

constexpr Range kUnsigned{0.0, 0x1p64, "an unsigned integer"};
constexpr Range kCount0{0.0, 1 << 20, "an integer >= 0"};
constexpr Range kCount1{1.0, 1 << 20, "an integer >= 1"};
constexpr Range kSteps0{0.0, 0x1p40, "an integer >= 0"};
constexpr Range kSteps1{1.0, 0x1p40, "an integer >= 1"};
constexpr Range kRate{0.0, 1.0, "a rate in [0, 1]"};
constexpr Range kFraction{0.0, 1.0, "a fraction in [0, 1]"};
constexpr Range kMultiplier{1.0, kHuge, "a multiplier >= 1"};
constexpr Range kNonNegative{0.0, kHuge, "a number >= 0"};
constexpr Range kSeconds{0.0, kHuge, "seconds >= 0"};
constexpr Range kPositiveSeconds{kTiny, kHuge, "seconds > 0"};
constexpr Range kHours{0.0, kHuge, "hours >= 0"};
constexpr Range kPositiveHours{kTiny, kHuge, "hours > 0"};
constexpr Range kGbps{kTiny, kHuge, "Gbps > 0"};
constexpr Range kUsdPerGb{0.0, kHuge, "dollars per GB >= 0"};

template <typename T>
bool in_range(T value, const Range& range) {
  const double number = static_cast<double>(value);
  return number >= range.min && number <= range.max;
}

/// Whole-text parse; on failure `*out` may hold a partial value, so
/// callers parse into scratch objects.
template <typename T>
bool parse_number(std::string_view text, T* out) {
  text = util::trim(text);
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Shortest text that reads back to the same value (from_chars exact).
template <typename T>
void append_number(std::string& out, T value) {
  char buffer[64];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

Error bad_value(std::string_view key, std::string_view value,
                std::string_view expected) {
  return "bad value \"" + std::string(value) + "\" for " + std::string(key) +
         " (expected " + std::string(expected) + ")";
}

std::string out_of_range(std::string_view key, std::string_view want) {
  return std::string(key) + " out of range (want " + std::string(want) + ")";
}

/// Stores `value` into `*field` only if it parses and lies in `range`.
template <typename T>
Error set_number(std::string_view key, std::string_view value, T* field,
                 const Range& range) {
  T parsed{};
  if (!parse_number(value, &parsed)) return bad_value(key, value, range.want);
  if (!in_range(parsed, range)) return out_of_range(key, range.want);
  *field = parsed;
  return std::nullopt;
}

// --- text ----------------------------------------------------------------

/// Text the `key = value` form carries unchanged: parse() trims values
/// and cuts lines at '#'.
bool valid_text(std::string_view text) {
  return !text.empty() && text == util::trim(text) &&
         text.find_first_of("#\n") == kNpos;
}

constexpr const char* kTextWant = "non-empty text without '#' or a newline";

// --- enums ---------------------------------------------------------------

constexpr HarnessKind kKinds[] = {HarnessKind::kRun, HarnessKind::kSession,
                                  HarnessKind::kSync, HarnessKind::kCloud,
                                  HarnessKind::kFleet};
constexpr train::FaultToleranceMode kFtModes[] = {
    train::FaultToleranceMode::kCmDare, train::FaultToleranceMode::kVanillaTf};
constexpr cloud::RequestContext kContexts[] = {
    cloud::RequestContext::kNormal,
    cloud::RequestContext::kImmediateAfterRevocation,
    cloud::RequestContext::kDelayedAfterRevocation};
constexpr cloud::StorageTier kTiers[] = {cloud::StorageTier::kLocal,
                                         cloud::StorageTier::kRegional,
                                         cloud::StorageTier::kCold};
constexpr fleet::SchedulerPolicy kPolicies[] = {
    fleet::SchedulerPolicy::kRoundRobin, fleet::SchedulerPolicy::kCostOptimal};

std::span<const HarnessKind> values_of(HarnessKind) { return kKinds; }
std::span<const train::FaultToleranceMode> values_of(
    train::FaultToleranceMode) {
  return kFtModes;
}
std::span<const cloud::RequestContext> values_of(cloud::RequestContext) {
  return kContexts;
}
std::span<const cloud::GpuType> values_of(cloud::GpuType) {
  return cloud::kAllGpuTypes;
}
std::span<const cloud::Region> values_of(cloud::Region) {
  return cloud::kAllRegions;
}
std::span<const cloud::StorageTier> values_of(cloud::StorageTier) {
  return kTiers;
}
std::span<const fleet::SchedulerPolicy> values_of(fleet::SchedulerPolicy) {
  return kPolicies;
}

std::string_view name_of(HarnessKind kind) { return harness_kind_name(kind); }
std::string_view name_of(train::FaultToleranceMode mode) {
  return mode == train::FaultToleranceMode::kCmDare ? "cm-dare"
                                                    : "vanilla-tf";
}
std::string_view name_of(cloud::RequestContext context) {
  switch (context) {
    case cloud::RequestContext::kNormal:
      return "normal";
    case cloud::RequestContext::kImmediateAfterRevocation:
      return "immediate";
    case cloud::RequestContext::kDelayedAfterRevocation:
      return "delayed";
  }
  return "normal";
}
std::string_view name_of(cloud::GpuType gpu) { return cloud::gpu_name(gpu); }
std::string_view name_of(cloud::Region region) {
  return cloud::region_name(region);
}
std::string_view name_of(cloud::StorageTier tier) {
  return cloud::storage_tier_name(tier);
}
std::string_view name_of(fleet::SchedulerPolicy policy) {
  return fleet::scheduler_policy_name(policy);
}

template <typename E>
bool known(E value) {
  const auto values = values_of(value);
  return std::find(values.begin(), values.end(), value) != values.end();
}

/// ASCII-only, so matching never depends on the process locale.
bool equal_ignoring_case(char a, char b) {
  const auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  return lower(a) == lower(b);
}

/// Case-insensitive match of `text` against every name of E.
template <typename E>
bool decode(std::string_view text, E* out) {
  text = util::trim(text);
  for (const E value : values_of(E{})) {
    const std::string_view name = name_of(value);
    if (std::equal(text.begin(), text.end(), name.begin(), name.end(),
                   equal_ignoring_case)) {
      *out = value;
      return true;
    }
  }
  return false;
}

template <typename E>
std::string names_of() {
  std::string out;
  for (const E value : values_of(E{})) {
    out += out.empty() ? "one of " : ", ";
    out += name_of(value);
  }
  return out;
}

// --- list elements -------------------------------------------------------
//
// Each element type has a text form (append_item), a validity check
// (check_item, which validate() runs) and a parser (parse_item) that
// ends in that check, so set_field() stores only what validate() accepts.

Error bad_item(std::string_view what, std::string_view text,
               std::string_view form) {
  return "bad " + std::string(what) + " \"" + std::string(util::trim(text)) +
         "\" (want \"" + std::string(form) + "\")";
}

/// The "<scope> @ <start_s>..<end_s>[ <tail>]" form of every window.
struct WindowText {
  std::string_view scope;
  std::string_view tail;
  double start_s = 0.0;
  double end_s = 0.0;
};

bool split_window(std::string_view text, WindowText* out) {
  const std::size_t at = text.find(" @ ");
  if (at == kNpos) return false;
  const std::string_view range = text.substr(at + 3);
  const std::size_t dots = range.find("..");
  if (dots == kNpos) return false;
  const std::string_view end = util::trim(range.substr(dots + 2));
  const std::size_t space = end.find(' ');
  out->scope = util::trim(text.substr(0, at));
  out->tail = space == kNpos ? "" : util::trim(end.substr(space));
  return parse_number(range.substr(0, dots), &out->start_s) &&
         parse_number(end.substr(0, space), &out->end_s);
}

Error check_window(std::string_view what, double start_s, double end_s) {
  if (in_range(start_s, kSeconds) && in_range(end_s, kSeconds) &&
      start_s <= end_s) {
    return std::nullopt;
  }
  return std::string(what) + " window must satisfy 0 <= start_s <= end_s";
}

void append_window(std::string& out, double start_s, double end_s) {
  out += " @ ";
  append_number(out, start_s);
  out += "..";
  append_number(out, end_s);
}

/// Stockouts and storms are scoped "<region>/<gpu-or-*>".
bool parse_scope(std::string_view scope, cloud::Region* region,
                 std::optional<cloud::GpuType>* gpu) {
  const std::size_t slash = scope.find('/');
  if (slash == kNpos || !decode(scope.substr(0, slash), region)) return false;
  const std::string_view name = util::trim(scope.substr(slash + 1));
  cloud::GpuType parsed{};
  if (name == "*") {
    gpu->reset();
  } else if (decode(name, &parsed)) {
    *gpu = parsed;
  } else {
    return false;
  }
  return true;
}

Error check_scope(std::string_view what, cloud::Region region,
                  const std::optional<cloud::GpuType>& gpu) {
  if (known(region) && (!gpu || known(*gpu))) return std::nullopt;
  return std::string(what) + " names an unknown region or GPU";
}

void append_scope(std::string& out, cloud::Region region,
                  const std::optional<cloud::GpuType>& gpu) {
  out += cloud::region_name(region);
  out += '/';
  out += gpu ? cloud::gpu_name(*gpu) : "*";
}

Error check_item(const WorkerGroup& group) {
  if (!in_range(group.count, kCount1)) {
    return out_of_range("worker group count", kCount1.want);
  }
  if (!known(group.gpu) || !known(group.region)) {
    return std::string("worker group names an unknown GPU or region");
  }
  return std::nullopt;
}

/// "<count> x <gpu> @ <region> [on-demand]"
Error parse_item(std::string_view text, WorkerGroup* group) {
  const std::size_t x = text.find(" x ");
  const std::size_t at = text.find(" @ ", x == kNpos ? 0 : x);
  const auto fail = [&] {
    return bad_item("worker group", text,
                    "<count> x <gpu> @ <region> [on-demand]");
  };
  if (x == kNpos || at == kNpos) return fail();
  const std::string_view place = util::trim(text.substr(at + 3));
  const std::size_t space = place.find(' ');
  const std::string_view mode =
      space == kNpos ? "" : util::trim(place.substr(space));
  group->transient = mode.empty();
  if (!parse_number(text.substr(0, x), &group->count) ||
      !decode(text.substr(x + 3, at - x - 3), &group->gpu) ||
      !decode(place.substr(0, space), &group->region) ||
      !(mode.empty() || mode == "on-demand")) {
    return fail();
  }
  return check_item(*group);
}

void append_item(std::string& out, const WorkerGroup& group) {
  append_number(out, group.count);
  out += " x ";
  out += cloud::gpu_name(group.gpu);
  out += " @ ";
  out += cloud::region_name(group.region);
  if (!group.transient) out += " on-demand";
}

Error check_item(const faults::StockoutWindow& window) {
  if (Error error = check_scope("stockout", window.region, window.gpu)) {
    return error;
  }
  return check_window("stockout", window.start_s, window.end_s);
}

/// "<region>/<gpu-or-*> @ <start_s>..<end_s>"
Error parse_item(std::string_view text, faults::StockoutWindow* window) {
  WindowText parts;
  if (!split_window(text, &parts) || !parts.tail.empty() ||
      !parse_scope(parts.scope, &window->region, &window->gpu)) {
    return bad_item("stockout", text, "<region>/<gpu|*> @ <start_s>..<end_s>");
  }
  window->start_s = parts.start_s;
  window->end_s = parts.end_s;
  return check_item(*window);
}

void append_item(std::string& out, const faults::StockoutWindow& window) {
  append_scope(out, window.region, window.gpu);
  append_window(out, window.start_s, window.end_s);
}

Error check_item(const faults::OutageStorm& storm) {
  if (Error error = check_scope("storm", storm.region, storm.gpu)) {
    return error;
  }
  if (Error error = check_window("storm", storm.start_s, storm.end_s)) {
    return error;
  }
  if (!in_range(storm.kill_fraction, kFraction)) {
    return std::string("storm kill fraction must be in [0, 1]");
  }
  if (!in_range(storm.hazard_multiplier, kMultiplier)) {
    return std::string("storm hazard multiplier must be >= 1");
  }
  if (!in_range(storm.startup_slowdown, kMultiplier)) {
    return std::string("storm startup slowdown must be >= 1");
  }
  return std::nullopt;
}

/// "<region>/<gpu-or-*> @ <start_s>..<end_s> [kill=F] [hazard=M] [slow=M]"
Error parse_item(std::string_view text, faults::OutageStorm* storm) {
  const auto fail = [&] {
    return bad_item("storm", text,
                    "<region>/<gpu|*> @ <start_s>..<end_s> [kill=<rate>] "
                    "[hazard=<mult>] [slow=<mult>]");
  };
  WindowText parts;
  if (!split_window(text, &parts) ||
      !parse_scope(parts.scope, &storm->region, &storm->gpu)) {
    return fail();
  }
  storm->start_s = parts.start_s;
  storm->end_s = parts.end_s;
  // Optional whitespace-separated key=value modifiers, any order.
  std::string_view rest = parts.tail;
  while (!rest.empty()) {
    const std::size_t space = rest.find(' ');
    const std::string_view token = rest.substr(0, space);
    rest = space == kNpos ? "" : util::trim(rest.substr(space));
    const std::size_t eq = token.find('=');
    const std::string_view name = token.substr(0, eq);
    double* field = name == "kill"     ? &storm->kill_fraction
                    : name == "hazard" ? &storm->hazard_multiplier
                    : name == "slow"   ? &storm->startup_slowdown
                                       : nullptr;
    if (field == nullptr || eq == kNpos ||
        !parse_number(token.substr(eq + 1), field)) {
      return fail();
    }
  }
  return check_item(*storm);
}

void append_item(std::string& out, const faults::OutageStorm& storm) {
  append_scope(out, storm.region, storm.gpu);
  append_window(out, storm.start_s, storm.end_s);
  out += " kill=";
  append_number(out, storm.kill_fraction);
  out += " hazard=";
  append_number(out, storm.hazard_multiplier);
  out += " slow=";
  append_number(out, storm.startup_slowdown);
}

Error check_item(const faults::TierOutageWindow& window) {
  if (!known(window.tier)) {
    return std::string("tier outage names an unknown tier");
  }
  return check_window("tier outage", window.start_s, window.end_s);
}

/// "<tier> @ <start_s>..<end_s>" (tier: local / regional / cold)
Error parse_item(std::string_view text, faults::TierOutageWindow* window) {
  WindowText parts;
  if (!split_window(text, &parts) || !parts.tail.empty() ||
      !decode(parts.scope, &window->tier)) {
    return bad_item("tier outage", text,
                    "<local|regional|cold> @ <start_s>..<end_s>");
  }
  window->start_s = parts.start_s;
  window->end_s = parts.end_s;
  return check_item(*window);
}

void append_item(std::string& out, const faults::TierOutageWindow& window) {
  out += cloud::storage_tier_name(window.tier);
  append_window(out, window.start_s, window.end_s);
}

// --- the field list ------------------------------------------------------

/// Every key of the text form, once, in serialize() order: its name, the
/// field it stands for, and the codec of its value — non-empty text, a
/// flag, a number in a range, a choice among an enum's names, or a
/// comma-joined list with a one-element append alias. set_field(),
/// serialize() and validate() are visitors over this list, so adding a
/// key means adding one line here.
template <typename Spec, typename Visitor>
void visit_fields(Spec& s, Visitor& v) {
  v.text("name", s.name);
  v.choice("kind", s.kind);
  v.number("seed", s.seed, kUnsigned);
  v.text("model", s.model);
  v.list("workers", "worker", s.workers);
  v.number("ps_count", s.ps_count, kCount1);
  v.number("max_steps", s.max_steps, kSteps0);
  v.number("checkpoint_interval_steps", s.checkpoint_interval_steps, kSteps0);
  v.number("checkpoint_max_retries", s.checkpoint_max_retries, kCount0);
  v.choice("ft_mode", s.ft_mode);
  v.choice("ps_region", s.ps_region);
  v.flag("auto_replace", s.auto_replace);
  v.choice("replacement_context", s.replacement_context);
  auto& policy = s.resilience;
  v.number("max_launch_attempts", policy.max_launch_attempts, kCount1);
  v.number("backoff_base_seconds", policy.backoff_base_seconds, kSeconds);
  v.number("backoff_multiplier", policy.backoff_multiplier, kMultiplier);
  v.number("backoff_max_seconds", policy.backoff_max_seconds, kSeconds);
  v.number("backoff_jitter", policy.backoff_jitter, kFraction);
  v.number("stockouts_before_fallback", policy.stockouts_before_fallback,
           kCount1);
  v.flag("allow_region_fallback", policy.allow_region_fallback);
  v.flag("allow_gpu_fallback", policy.allow_gpu_fallback);
  v.flag("allow_on_demand_fallback", policy.allow_on_demand_fallback);
  // [0, 24): the upper bound is the largest double below 24.
  v.number("utc_start_hour", s.utc_start_hour,
           {0.0, 0x1.7ffffffffffffp4, "an hour in [0, 24)"});
  v.number("horizon_hours", s.horizon_hours, kHours);
  auto& plan = s.faults;
  v.number("launch_error_rate", plan.launch_error_rate, kRate);
  v.number("upload_error_rate", plan.upload_error_rate, kRate);
  v.number("upload_slowdown_rate", plan.upload_slowdown_rate, kRate);
  v.number("upload_slowdown_factor", plan.upload_slowdown_factor,
           kMultiplier);
  v.number("restore_error_rate", plan.restore_error_rate, kRate);
  v.number("abrupt_kill_rate", plan.abrupt_kill_rate, kRate);
  v.list("stockouts", "stockout", plan.stockouts);
  v.list("storms", "storm", plan.storms);
  v.flag("ckpt.enabled", s.ckpt.enabled);
  v.number("ckpt.delta_ratio", s.ckpt.delta_ratio,
           {kTiny, 1.0, "a fraction in (0, 1]"});
  v.number("ckpt.max_delta_chain", s.ckpt.max_delta_chain, kCount1);
  v.number("ckpt.max_generations", s.ckpt.max_generations, kCount1);
  v.number("ckpt.bit_rot_rate", plan.bit_rot_rate, kRate);
  v.number("ckpt.torn_write_rate", plan.torn_write_rate, kRate);
  v.list("ckpt.tier_outages", "ckpt.tier_outage", plan.tier_outages);
  auto& tiers = s.store_tiers;
  v.number("store.tier.local.latency_s", tiers.local.latency_s, kSeconds);
  v.number("store.tier.local.bandwidth_gbps", tiers.local.bandwidth_gbps,
           kGbps);
  v.number("store.tier.local.usd_per_gb", tiers.local.usd_per_gb, kUsdPerGb);
  v.number("store.tier.regional.latency_s", tiers.regional.latency_s,
           kSeconds);
  v.number("store.tier.regional.bandwidth_gbps",
           tiers.regional.bandwidth_gbps, kGbps);
  v.number("store.tier.regional.usd_per_gb", tiers.regional.usd_per_gb,
           kUsdPerGb);
  v.number("store.tier.cold.latency_s", tiers.cold.latency_s, kSeconds);
  v.number("store.tier.cold.bandwidth_gbps", tiers.cold.bandwidth_gbps,
           kGbps);
  v.number("store.tier.cold.usd_per_gb", tiers.cold.usd_per_gb, kUsdPerGb);
  auto& market = s.fleet;
  v.number("fleet.tenants", market.tenants,
           {1.0, 65536.0, "an integer in [1, 65536]"});
  v.number("fleet.demand", market.demand,
           {kTiny, 64.0, "a multiplier in (0, 64]"});
  v.number("fleet.workers_per_tenant", market.workers_per_tenant,
           {1.0, 1024.0, "an integer in [1, 1024]"});
  v.number("fleet.min_steps", market.min_steps, kSteps1);
  v.number("fleet.max_steps", market.max_steps, kSteps1);
  v.number("fleet.checkpoint_interval_steps",
           market.checkpoint_interval_steps, kSteps0);
  v.number("fleet.checkpoint_seconds", market.checkpoint_seconds, kSeconds);
  v.number("fleet.restore_seconds", market.restore_seconds, kSeconds);
  v.number("fleet.deadline_hours", market.deadline_hours, kPositiveHours);
  v.flag("fleet.model_mix", market.model_mix);
  v.number("fleet.capacity_per_pool", market.capacity_per_pool, kCount1);
  v.number("fleet.price_sensitivity", market.price_sensitivity,
           {0.0, 1000.0, "a factor in [0, 1000]"});
  v.number("fleet.price_exponent", market.price_exponent,
           {0.0, 64.0, "an exponent in [0, 64]"});
  v.number("fleet.capacity_dip", market.capacity_dip, kRate);
  v.number("fleet.bid_spread", market.bid_spread, kNonNegative);
  v.number("fleet.market_period_s", market.market_period_s, kPositiveSeconds);
  v.choice("fleet.scheduler", market.scheduler);
  v.number("fleet.migrate_period_s", market.migrate_period_s, kSeconds);
  v.number("fleet.migrate_gain", market.migrate_gain, kFraction);
  v.flag("fleet.hazard_revocations", market.hazard_revocations);
  auto& sup = s.supervision;
  v.flag("supervise.enabled", sup.enabled);
  v.number("supervise.heartbeat_period_s", sup.heartbeat.period_s,
           kPositiveSeconds);
  v.number("supervise.heartbeat_timeout_s", sup.heartbeat.timeout_s,
           kPositiveSeconds);
  v.number("supervise.heartbeat_jitter", sup.heartbeat.jitter, kFraction);
  v.number("supervise.phi_threshold", sup.heartbeat.phi_threshold,
           kNonNegative);
  v.number("supervise.sweep_period_s", sup.heartbeat.sweep_period_s,
           kSeconds);
  v.number("supervise.hazard_halflife_hours", sup.hazard.halflife_hours,
           kPositiveHours);
  v.number("supervise.hazard_prior_weight_hours",
           sup.hazard.prior_weight_hours, kHours);
  v.number("supervise.score_halflife_hours", sup.hazard.score_halflife_hours,
           kPositiveHours);
  v.number("supervise.retune_period_s", sup.checkpoint.retune_period_s,
           kSeconds);
  v.number("supervise.retune_hysteresis", sup.checkpoint.hysteresis,
           kFraction);
  v.number("supervise.min_interval_steps", sup.checkpoint.min_interval_steps,
           kSteps1);
  v.flag("supervise.score_replacement", sup.score_replacement);
  v.flag("supervise.hedged_replacement", sup.hedged_replacement);
  auto& elastic = sup.elastic;
  v.flag("supervise.elastic.enabled", elastic.enabled);
  v.number("supervise.elastic.min_workers", elastic.min_workers, kCount1);
  v.number("supervise.elastic.breaker_failures",
           elastic.breaker.open_after_failures, kCount1);
  v.number("supervise.elastic.breaker_backoff_s", elastic.breaker.backoff_s,
           kPositiveSeconds);
  v.number("supervise.elastic.breaker_backoff_multiplier",
           elastic.breaker.backoff_multiplier, kMultiplier);
  v.number("supervise.elastic.breaker_max_backoff_s",
           elastic.breaker.max_backoff_s, kPositiveSeconds);
  v.number("supervise.elastic.grow_hysteresis_s", elastic.grow_hysteresis_s,
           kSeconds);
  v.number("supervise.elastic.futility_threshold",
           elastic.futility_threshold, kNonNegative);
  v.number("supervise.elastic.deadline_hours", elastic.deadline_hours,
           kHours);
}

// --- the three visitors --------------------------------------------------

/// set_field(): stores `value` through the codec of the row named `key`,
/// or leaves the spec untouched and reports why.
struct Setter {
  std::string_view key;
  std::string_view value;
  bool found = false;
  Error error = std::nullopt;

  bool claims(std::string_view name) {
    if (found || name != key) return false;
    found = true;
    return true;
  }
  void text(std::string_view name, std::string& field) {
    if (!claims(name)) return;
    if (!valid_text(value)) {
      error = bad_value(name, value, kTextWant);
      return;
    }
    field = std::string(value);
  }
  void flag(std::string_view name, bool& field) {
    if (!claims(name)) return;
    if (value == "true" || value == "1") {
      field = true;
    } else if (value == "false" || value == "0") {
      field = false;
    } else {
      error = bad_value(name, value, "true or false");
    }
  }
  template <typename T>
  void number(std::string_view name, T& field, const Range& range) {
    if (claims(name)) error = set_number(name, value, &field, range);
  }
  template <typename E>
  void choice(std::string_view name, E& field) {
    if (claims(name) && !decode(value, &field)) {
      error = bad_value(name, value, names_of<E>());
    }
  }
  template <typename T>
  void list(std::string_view name, std::string_view alias,
            std::vector<T>& field) {
    const bool append = key == alias;
    if (!claims(append ? alias : name)) return;
    std::vector<T> items;
    if (append) items = field;
    if (!value.empty()) {
      for (const std::string& part : util::split(value, ',')) {
        T item;
        if ((error = parse_item(part, &item))) return;
        items.push_back(item);
      }
    }
    field = std::move(items);
  }
};

/// serialize(): one `key = value` line per row; empty lists are omitted.
struct Writer {
  std::string out;

  void line(std::string_view name) {
    out += name;
    out += " = ";
  }
  void text(std::string_view name, const std::string& field) {
    line(name);
    out += field;
    out += '\n';
  }
  void flag(std::string_view name, bool field) {
    line(name);
    out += field ? "true\n" : "false\n";
  }
  template <typename T>
  void number(std::string_view name, T field, const Range&) {
    line(name);
    append_number(out, field);
    out += '\n';
  }
  template <typename E>
  void choice(std::string_view name, E field) {
    line(name);
    out += name_of(field);
    out += '\n';
  }
  template <typename T>
  void list(std::string_view name, std::string_view,
            const std::vector<T>& field) {
    if (field.empty()) return;
    line(name);
    for (std::size_t i = 0; i < field.size(); ++i) {
      if (i > 0) out += ", ";
      append_item(out, field[i]);
    }
    out += '\n';
  }
};

/// validate(), per field: every value must be one set_field() could
/// have stored, or the text form would not read back to the same spec.
struct Checker {
  std::vector<std::string>& errors;

  void text(std::string_view name, const std::string& field) {
    if (!valid_text(field)) errors.push_back(out_of_range(name, kTextWant));
  }
  void flag(std::string_view, bool) {}
  template <typename T>
  void number(std::string_view name, T field, const Range& range) {
    if (!in_range(field, range)) {
      errors.push_back(out_of_range(name, range.want));
    }
  }
  template <typename E>
  void choice(std::string_view name, E field) {
    if (!known(field)) errors.push_back(out_of_range(name, names_of<E>()));
  }
  template <typename T>
  void list(std::string_view, std::string_view,
            const std::vector<T>& field) {
    for (const T& item : field) {
      if (Error error = check_item(item)) {
        errors.push_back(std::move(*error));
        return;
      }
    }
  }
};

}  // namespace

const char* harness_kind_name(HarnessKind kind) {
  switch (kind) {
    case HarnessKind::kRun:
      return "run";
    case HarnessKind::kSession:
      return "session";
    case HarnessKind::kSync:
      return "sync";
    case HarnessKind::kCloud:
      return "cloud";
    case HarnessKind::kFleet:
      return "fleet";
  }
  return "run";
}

std::optional<std::string> set_field(ScenarioSpec& spec, std::string_view key,
                                     std::string_view value) {
  key = util::trim(key);
  value = util::trim(value);
  if (key == "fault_rate") {
    // Write-only shorthand: one uniform rate across every probabilistic
    // fault class (stockouts and the slowdown factor are untouched).
    double rate = 0.0;
    if (Error error = set_number(key, value, &rate, kRate)) return error;
    faults::FaultPlan& plan = spec.faults;
    plan.launch_error_rate = rate;
    plan.upload_error_rate = rate;
    plan.upload_slowdown_rate = rate;
    plan.restore_error_rate = rate;
    plan.abrupt_kill_rate = rate;
    return std::nullopt;
  }
  Setter setter{key, value};
  visit_fields(spec, setter);
  if (!setter.found) return "unknown key \"" + std::string(key) + "\"";
  return setter.error;
}

ParseResult parse(std::string_view text) {
  ParseResult result;
  int line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const std::size_t newline = text.find('\n');
    std::string_view line = text.substr(0, newline);
    text = newline == std::string_view::npos ? std::string_view()
                                             : text.substr(newline + 1);
    // Strip comments and blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = util::trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      result.diagnostics.push_back(
          {line_number, "expected \"key = value\", got \"" +
                            std::string(line) + "\""});
      continue;
    }
    if (auto error = set_field(result.spec, line.substr(0, eq),
                               line.substr(eq + 1))) {
      result.diagnostics.push_back({line_number, std::move(*error)});
    }
  }
  for (std::string& error : validate(result.spec)) {
    result.diagnostics.push_back({0, std::move(error)});
  }
  return result;
}

std::string serialize(const ScenarioSpec& spec) {
  Writer writer;
  visit_fields(spec, writer);
  return std::move(writer.out);
}

std::vector<std::string> validate(const ScenarioSpec& spec) {
  std::vector<std::string> errors;
  Checker checker{errors};
  visit_fields(spec, checker);

  // Cross-field rules: the ones no single row can check.
  try {
    (void)nn::model_by_name(spec.model);
  } catch (const std::exception&) {
    errors.push_back("unknown model \"" + spec.model + "\"");
  }
  if (spec.workers.empty() &&
      (spec.kind == HarnessKind::kRun || spec.kind == HarnessKind::kSync)) {
    errors.push_back(std::string("kind=") + harness_kind_name(spec.kind) +
                     " needs at least one worker group");
  }
  if (spec.kind != HarnessKind::kCloud && spec.kind != HarnessKind::kFleet &&
      spec.max_steps < 1 && spec.horizon_hours <= 0.0) {
    errors.push_back(
        "max_steps = 0 with no horizon_hours would never terminate");
  }
  if (spec.kind == HarnessKind::kFleet) {
    for (std::string& error : fleet::validate(spec.fleet)) {
      errors.push_back(std::move(error));
    }
  }
  const supervise::SupervisionConfig& sup = spec.supervision;
  if (sup.enabled && sup.heartbeat.phi_threshold == 0.0 &&
      sup.heartbeat.timeout_s <= sup.heartbeat.period_s) {
    errors.push_back(
        "supervise.heartbeat_timeout_s must exceed "
        "supervise.heartbeat_period_s (every worker would be flagged)");
  }
  if (sup.elastic.enabled && !sup.enabled) {
    errors.push_back(
        "supervise.elastic.enabled requires supervise.enabled = true");
  }
  if (sup.elastic.enabled &&
      sup.elastic.breaker.max_backoff_s < sup.elastic.breaker.backoff_s) {
    errors.push_back(
        "supervise.elastic.breaker_max_backoff_s must be >= "
        "supervise.elastic.breaker_backoff_s");
  }
  return errors;
}

}  // namespace cmdare::scenario
