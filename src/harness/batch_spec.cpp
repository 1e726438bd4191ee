#include "harness/batch.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "graph/generators.hpp"
#include "harness/protocols.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"
#include "support/parse.hpp"
#include "support/require.hpp"

namespace radnet::harness {

namespace {

constexpr double kPi = 3.141592653589793;

BatchFamily family_from_name(std::string_view name, std::string_view what) {
  if (name == "csr") return BatchFamily::kCsr;
  if (name == "ignp") return BatchFamily::kImplicitGnp;
  if (name == "idgnp") return BatchFamily::kImplicitDynamic;
  if (name == "irgg") return BatchFamily::kImplicitRgg;
  throw std::invalid_argument(std::string(what) +
                              " must be csr, ignp, idgnp or irgg, got '" +
                              std::string(name) + "'");
}

}  // namespace

const char* batch_family_name(BatchFamily family) {
  switch (family) {
    case BatchFamily::kCsr: return "csr";
    case BatchFamily::kImplicitGnp: return "ignp";
    case BatchFamily::kImplicitDynamic: return "idgnp";
    case BatchFamily::kImplicitRgg: return "irgg";
  }
  RADNET_CHECK(false, "unreachable batch family");
  return "";
}

double BatchSpec::effective_p() const {
  if (family == BatchFamily::kImplicitRgg) {
    const double r = rgg_radius();
    return std::min(1.0, kPi * r * r);
  }
  if (p > 0.0) return p;
  return delta_link_probability(n, delta);
}

double BatchSpec::rgg_radius() const {
  return graph::rgg_threshold_radius(n, radius_mult);
}

std::uint64_t BatchSpec::resolved_diameter() const {
  if (diameter > 0) return diameter;
  if (family == BatchFamily::kImplicitRgg)
    return std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::ceil(1.4143 / rgg_radius())));
  return 2ull * ilog2_floor(n) + 8;
}

std::uint64_t BatchSpec::resolved_max_rounds() const {
  if (max_rounds > 0) return max_rounds;
  // 64 * (D log n + log^2 n). A csr spec assumes D = 2 log n + 8 unless
  // diameter is set; radnet_cli sets the diameter it measures on a sample
  // graph of its generator.
  const double log2n = std::log2(static_cast<double>(n));
  return static_cast<std::uint64_t>(
      64.0 * (static_cast<double>(resolved_diameter()) * std::max(1.0, log2n) +
              log2n * log2n));
}

void BatchSpec::validate(std::string_view field) const {
  // Messages are built only on failure (RADNET_REQUIRE), so the prefix
  // costs nothing on the hash() / to_mc_spec() path.
  const auto named = [field](const char* key) {
    return std::string(field) + key;
  };
  if (find_protocol(protocol) == nullptr) {
    std::string names;
    for (const ProtocolEntry& e : protocol_table())
      names += (names.empty() ? "" : ", ") + std::string(e.name);
    throw std::invalid_argument(named("protocol") + " must be one of " +
                                names + ", got '" + protocol + "'");
  }
  RADNET_REQUIRE(n >= 1, named("n") + " must be >= 1");
  RADNET_REQUIRE(trials >= 1 && trials <= McSpec::kMaxTrials,
                 named("trials") + " must be in [1, McSpec::kMaxTrials]");
  RADNET_REQUIRE(std::isfinite(tol) && tol >= 0.0,
                 named("tol") + " must be finite and >= 0");
  RADNET_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 named("confidence") + " must be in (0, 1)");
  RADNET_REQUIRE(std::isfinite(q) && q >= 0.0 && q <= 1.0,
                 named("q") + " must be in [0, 1]");
  RADNET_REQUIRE(q > 0.0 || protocol != "fixed",
                 named("q") + " must be > 0 for protocol fixed");
  RADNET_REQUIRE(p >= 0.0 && p <= 1.0, named("p") + " must be in [0, 1]");
  RADNET_REQUIRE(std::isfinite(delta) && delta > 0.0,
                 named("delta") + " must be > 0");
  RADNET_REQUIRE(source < n, named("source") + " must be < n (" +
                                 std::to_string(n) + ")");
  if (family == BatchFamily::kImplicitRgg) {
    RADNET_REQUIRE(std::isfinite(radius_mult) && radius_mult > 0.0,
                   named("radius-mult") + " must be > 0");
    const double r = rgg_radius();
    RADNET_REQUIRE(r > 0.0 && r <= 1.5,
                   named("radius-mult") + " yields a radius outside (0, 1.5]");
    // resolved_diameter() is ceil(1.4143 / r) hops; keep it a 32-bit count.
    RADNET_REQUIRE(1.4143 / r <= 4294967295.0,
                   named("radius-mult") +
                       " yields a radius too small for a 32-bit hop diameter");
    RADNET_REQUIRE(step >= 0.0 && step <= 1.0,
                   named("step") + " must be in [0, 1]");
  } else {
    RADNET_REQUIRE(effective_p() > 0.0,
                   "resolved link probability must be > 0 (n = 1 with a "
                   "delta default has no edges; set p explicitly)");
  }
  if (family == BatchFamily::kImplicitDynamic) {
    RADNET_REQUIRE(churn > 0.0 && churn <= 1.0,
                   named("churn") + " must be in (0, 1]");
    RADNET_REQUIRE(fail_prob >= 0.0 && fail_prob < 1.0,
                   named("fail-prob") + " must be in [0, 1)");
  } else {
    RADNET_REQUIRE(p_amp == 0.0,
                   named("p-amp") + " applies only to the idgnp family");
  }
  RADNET_REQUIRE(resolved_max_rounds() >= 1 &&
                     resolved_max_rounds() <=
                         std::numeric_limits<sim::Round>::max(),
                 named("max-rounds") + " is out of range");
  adversary.validate();
}

std::uint64_t BatchSpec::hash() const {
  validate();
  // Resolved values, not as-written ones: `delta=8` and the explicit p it
  // resolves to hash identically, as do an explicit max-rounds equal to
  // the derived default. Tags are append-only (see HashStream).
  HashStream h("radnet-batch-spec-v1");
  h.put_string(1, protocol);
  h.put_u64(2, static_cast<std::uint64_t>(family));
  h.put_u64(3, n);
  h.put_double(4, effective_p());
  h.put_double(5, q);
  h.put_double(6, churn);
  h.put_double(7, fail_prob);
  h.put_double(8, radius_mult);
  h.put_double(9, step);
  h.put_u64(10, trials);
  h.put_u64(11, seed);
  h.put_u64(12, resolved_max_rounds());
  h.put_double(13, tol);
  h.put_double(14, confidence);
  h.put_double(15, adversary.jammer_fraction);
  h.put_double(16, adversary.byzantine_fraction);
  h.put_double(17, adversary.budget_mean);
  h.put_double(18, adversary.budget_spread);
  h.put_u64(19, static_cast<std::uint64_t>(adversary.exhaust_mode));
  h.put_u64(20, adversary.fault_schedule.size());
  for (const sim::FaultEvent& ev : adversary.fault_schedule) {
    h.put_u64(21, ev.round);
    h.put_u64(22, static_cast<std::uint64_t>(ev.kind));
    h.put_double(23, ev.fraction);
  }
  // The protected set to_mc_spec derives: {source} iff the adversary acts.
  h.put_u64(24, adversary.active() ? 1 : 0);
  if (adversary.active()) h.put_u64(25, source);
  // Later keys hash only when they differ from their defaults, so every
  // spec written before they existed keeps its hash (its cache address).
  if (source != 0) h.put_u64(26, source);
  if (diameter != 0) h.put_u64(27, diameter);
  if (lambda != 0.0) h.put_double(28, lambda);
  if (p_amp != 0.0) {
    h.put_double(29, p_amp);
    h.put_u64(30, p_period);
  }
  return h.value();
}

McSpec BatchSpec::to_mc_spec() const {
  validate();
  McSpec mc;
  mc.trials = trials;
  mc.seed = seed;
  const double eff_p = effective_p();
  const graph::NodeId nodes = n;
  switch (family) {
    case BatchFamily::kCsr:
      mc.make_graph = [nodes, eff_p](std::uint32_t, Rng rng) {
        return std::make_shared<const graph::Digraph>(
            graph::gnp_directed(nodes, eff_p, rng));
      };
      break;
    case BatchFamily::kImplicitGnp:
      mc.implicit_gnp = sim::ImplicitGnp{nodes, eff_p, Rng{}};
      break;
    case BatchFamily::kImplicitDynamic: {
      sim::ImplicitDynamicGnp d;
      d.n = nodes;
      d.p = eff_p;
      d.churn = churn;
      d.fail_prob = fail_prob;
      if (p_amp != 0.0) {
        d.p_of_round = [eff_p, amp = p_amp, period = p_period](sim::Round r) {
          return eff_p * (1.0 + amp * std::sin(2.0 * kPi *
                                               static_cast<double>(r) /
                                               static_cast<double>(period)));
        };
      }
      mc.implicit_dynamic = std::move(d);
      break;
    }
    case BatchFamily::kImplicitRgg: {
      const double r = rgg_radius();
      mc.implicit_rgg = sim::ImplicitRgg{nodes, r, r * step, Rng{}};
      break;
    }
  }
  const ProtocolArgs args{.n = nodes,
                          .p = eff_p,
                          .source = source,
                          .diameter = resolved_diameter(),
                          .q = q,
                          .lambda = lambda};
  mc.make_protocol = [make = find_protocol(protocol)->make, args](
                         const graph::Digraph&, std::uint32_t) {
    return make(args);
  };
  mc.run_options.max_rounds = static_cast<sim::Round>(resolved_max_rounds());
  mc.run_options.stop_on_empty_candidates = true;
  mc.run_options.adversary = adversary;
  // The attacked quantity is the spread of the message, not its existence.
  if (adversary.active()) mc.run_options.adversary.protected_nodes = {source};
  return mc;
}

void BatchSpec::set(std::string_view key, std::string_view value,
                    std::string_view what) {
  const auto node_id = [&] {
    const std::uint64_t v = parse_u64_strict(value, what);
    RADNET_REQUIRE(v <= std::numeric_limits<graph::NodeId>::max(),
                   std::string(what) + " is out of range");
    return static_cast<graph::NodeId>(v);
  };
  if (key == "protocol") {
    protocol = value;  // checked against the protocol table by validate()
  } else if (key == "family") {
    family = family_from_name(value, what);
  } else if (key == "n") {
    n = node_id();
    RADNET_REQUIRE(n >= 1, std::string(what) + " is out of range");
  } else if (key == "p") {
    p = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "delta") {
    delta = parse_double_strict(value, what);
  } else if (key == "q") {
    q = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "churn") {
    churn = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "fail-prob") {
    fail_prob = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "radius-mult") {
    radius_mult = parse_double_strict(value, what);
  } else if (key == "step") {
    step = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "p-amp") {
    p_amp = parse_double_strict(value, what);
    RADNET_REQUIRE(p_amp >= 0.0, std::string(what) + " must be >= 0");
  } else if (key == "p-period") {
    p_period = parse_u64_strict(value, what);
    RADNET_REQUIRE(p_period >= 1, std::string(what) + " must be >= 1");
  } else if (key == "source") {
    source = node_id();
  } else if (key == "diameter") {
    diameter = node_id();  // a hop diameter is below n; keeps budgets finite
  } else if (key == "lambda") {
    lambda = parse_double_strict(value, what);
    RADNET_REQUIRE(lambda >= 0.0, std::string(what) + " must be >= 0");
  } else if (key == "trials") {
    const std::uint64_t v = parse_u64_strict(value, what);
    RADNET_REQUIRE(v >= 1 && v <= McSpec::kMaxTrials,
                   std::string(what) + " is out of range");
    trials = static_cast<std::uint32_t>(v);
  } else if (key == "seed") {
    seed = parse_u64_strict(value, what);
  } else if (key == "max-rounds") {
    max_rounds = parse_u64_strict(value, what);
  } else if (key == "tol") {
    tol = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "confidence") {
    confidence = parse_double_strict(value, what);
  } else if (key == "jammers") {
    adversary.jammer_fraction = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "byzantine") {
    adversary.byzantine_fraction = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "energy-budget") {
    sim::parse_energy_budget(value, what, adversary);
  } else if (key == "fault-schedule") {
    adversary.fault_schedule = sim::parse_fault_schedule(value, what);
  } else {
    throw std::invalid_argument("unknown spec key '" + std::string(key) +
                                "'");
  }
}

BatchSpec parse_batch_spec(std::string_view line) {
  BatchSpec spec;
  std::unordered_set<std::string> seen;
  std::istringstream tokens{std::string(line)};
  std::string token;
  while (tokens >> token) {
    if (token[0] == '#') break;
    const std::size_t eq = token.find('=');
    RADNET_REQUIRE(eq != std::string::npos && eq > 0,
                   "spec tokens look like key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    RADNET_REQUIRE(seen.insert(key).second,
                   "duplicate spec key '" + key + "'");
    spec.set(key, std::string_view(token).substr(eq + 1), "spec field " + key);
  }
  RADNET_REQUIRE(!seen.empty(), "empty spec line");
  spec.validate();
  return spec;
}

std::vector<BatchSpec> parse_batch_file(std::istream& in) {
  std::vector<BatchSpec> specs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      specs.push_back(parse_batch_spec(line));
    } catch (const std::exception& e) {
      throw std::invalid_argument("spec line " + std::to_string(lineno) +
                                  ": " + e.what());
    }
  }
  return specs;
}

}  // namespace radnet::harness
