#include "acp/scenario/spec.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "acp/billboard/service.hpp"
#include "acp/obs/json.hpp"
#include "acp/obs/json_value.hpp"
#include "acp/util/types.hpp"

namespace acp::scenario {

namespace {

using obs::JsonValue;

[[noreturn]] void field_error(const std::string& path,
                              const std::string& message) {
  throw std::invalid_argument("scenario." + path + ": " + message);
}

/// Wrap the JsonValue accessor exceptions with the field path so the user
/// sees `scenario.world.n: expected number, got string` instead of a bare
/// type name.
template <class Fn>
auto at(const std::string& path, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    field_error(path, e.what());
  }
}

double get_number(const JsonValue& section, const std::string& section_name,
                  std::string_view key, double fallback) {
  const JsonValue* v = section.find(key);
  if (v == nullptr) return fallback;
  return at(section_name + "." + std::string(key),
            [&] { return v->as_number(); });
}

std::uint64_t get_u64(const JsonValue& section,
                      const std::string& section_name, std::string_view key,
                      std::uint64_t fallback) {
  const JsonValue* v = section.find(key);
  if (v == nullptr) return fallback;
  return at(section_name + "." + std::string(key),
            [&] { return v->as_u64(); });
}

bool get_bool(const JsonValue& section, const std::string& section_name,
              std::string_view key, bool fallback) {
  const JsonValue* v = section.find(key);
  if (v == nullptr) return fallback;
  return at(section_name + "." + std::string(key),
            [&] { return v->as_bool(); });
}

std::string get_string(const JsonValue& section,
                       const std::string& section_name, std::string_view key,
                       std::string fallback) {
  const JsonValue* v = section.find(key);
  if (v == nullptr) return fallback;
  return at(section_name + "." + std::string(key),
            [&] { return v->as_string(); });
}

/// Reject unknown members so a misspelled knob cannot silently fall back
/// to its default.
void require_members(const JsonValue& object, const std::string& path,
                     std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : object.as_object()) {
    bool found = false;
    for (const std::string_view k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::string message = "unknown key '" + key + "' (expected one of:";
      bool first = true;
      for (const std::string_view k : known) {
        message += first ? " " : ", ";
        message += std::string(k);
        first = false;
      }
      message += ")";
      field_error(path, message);
    }
  }
}

ParamMap parse_params(const JsonValue& section, const std::string& path) {
  ParamMap params;
  for (const auto& [key, value] : section.as_object()) {
    const std::string member_path = path + "." + key;
    if (value.is_bool()) {
      params.set(key, value.as_bool() ? 1.0 : 0.0);
    } else {
      params.set(key, at(member_path, [&] { return value.as_number(); }));
    }
  }
  return params;
}

void write_params(obs::JsonWriter& json, const ParamMap& params) {
  json.begin_object();
  for (const auto& [key, value] : params.values()) {
    json.member(key, value);
  }
  json.end_object();
}

}  // namespace

std::string ScenarioSpec::resolved_world() const {
  if (world != "auto") return world;
  if (protocol == "cost-classes") return "cost-classes";
  if (protocol == "no-lt") return "top-beta";
  return "simple";
}

void ScenarioSpec::validate() const {
  if (n < 1) field_error("world.n", "must be >= 1");
  if (m < 1) field_error("world.m", "must be >= 1");
  // Player and object ids are 32-bit (acp/util/types.hpp).
  if (n > kMaxIdCount) {
    field_error("world.n", "must be below 2^32, got " + std::to_string(n));
  }
  if (m > kMaxIdCount) {
    field_error("world.m", "must be below 2^32, got " + std::to_string(m));
  }
  if (good < 1 || good > m) {
    field_error("world.good",
                "must be in [1, m]; got " + std::to_string(good) + " with m=" +
                    std::to_string(m));
  }
  if (alpha <= 0.0 || alpha > 1.0) {
    field_error("world.alpha",
                "must be in (0, 1], got " + std::to_string(alpha));
  }
  if (world != "auto" && world != "simple" && world != "cost-classes" &&
      world != "top-beta") {
    field_error("world.kind", "unknown world '" + world +
                                  "' (known: auto, simple, cost-classes, "
                                  "top-beta)");
  }
  if (world == "cost-classes" || resolved_world() == "cost-classes") {
    if (cost_classes < 1) field_error("world.cost_classes", "must be >= 1");
    if (cheapest_good_class >= cost_classes) {
      field_error("world.cheapest_good_class",
                  "must be < cost_classes (" + std::to_string(cost_classes) +
                      "), got " + std::to_string(cheapest_good_class));
    }
  }
  if (engine != "sync" && engine != "async" && engine != "lockstep" &&
      engine != "gossip") {
    field_error("engine.kind", "unknown engine '" + engine +
                                   "' (known: sync, async, lockstep, "
                                   "gossip)");
  }
  if (scheduler != "rr" && scheduler != "random") {
    field_error("engine.scheduler", "unknown scheduler '" + scheduler +
                                        "' (known: rr, random)");
  }
  if (substrate != "digest" && substrate != "exchange") {
    field_error("engine.substrate", "unknown substrate '" + substrate +
                                        "' (known: digest, exchange)");
  }
  if (loss_prob < 0.0 || loss_prob >= 1.0) {
    field_error("engine.loss_prob",
                "must be in [0, 1), got " + std::to_string(loss_prob));
  }
  if (max_rounds < 1) field_error("engine.max_rounds", "must be >= 1");
  if (max_steps < 1) field_error("engine.max_steps", "must be >= 1");
  try {
    (void)BillboardBackendSpec::parse(billboard);
  } catch (const std::invalid_argument& e) {
    field_error("billboard.backend", e.what());
  }
  if (depart_frac < 0.0 || depart_frac > 1.0) {
    field_error("churn.depart_frac",
                "must be in [0, 1], got " + std::to_string(depart_frac));
  }
  if (depart_frac > 0.0 && depart_round < 1) {
    field_error("churn.depart_round",
                "departures need depart_round >= 1 (a departure at round 0 "
                "would remove the player before it ever acts)");
  }
  if (arrival_window < 0) field_error("churn.arrival_window", "must be >= 0");
  if (trials < 1) field_error("trials.count", "must be >= 1");
}

ScenarioSpec ScenarioSpec::from_json(std::string_view text) {
  const JsonValue doc = obs::parse_json(text);
  if (!doc.is_object()) {
    throw std::invalid_argument(
        "scenario: top level must be a JSON object, got " +
        std::string(JsonValue::kind_name(doc.kind())));
  }
  require_members(doc, "<top>",
                  {"schema", "name", "description", "world", "protocol",
                   "adversary", "engine", "billboard", "churn", "trials"});

  if (const JsonValue* schema = doc.find("schema")) {
    const std::string& value =
        at(std::string("schema"), [&]() -> const std::string& {
          return schema->as_string();
        });
    if (value != kSchema) {
      throw std::invalid_argument("scenario.schema: expected \"" +
                                  std::string(kSchema) + "\", got \"" + value +
                                  "\"");
    }
  } else {
    throw std::invalid_argument(
        "scenario.schema: missing (expected \"acp.scenario.v1\")");
  }

  ScenarioSpec spec;
  spec.name = get_string(doc, "<top>", "name", "");
  spec.description = get_string(doc, "<top>", "description", "");

  if (const JsonValue* w = doc.find("world")) {
    at(std::string("world"), [&] { return &w->as_object(); });
    require_members(*w, "world",
                    {"kind", "n", "m", "good", "alpha", "cost_classes",
                     "cheapest_good_class"});
    spec.world = get_string(*w, "world", "kind", spec.world);
    spec.n = get_u64(*w, "world", "n", spec.n);
    spec.m = get_u64(*w, "world", "m", spec.m);
    spec.good = get_u64(*w, "world", "good", spec.good);
    spec.alpha = get_number(*w, "world", "alpha", spec.alpha);
    spec.cost_classes =
        get_u64(*w, "world", "cost_classes", spec.cost_classes);
    spec.cheapest_good_class =
        get_u64(*w, "world", "cheapest_good_class", spec.cheapest_good_class);
  }

  if (const JsonValue* p = doc.find("protocol")) {
    at(std::string("protocol"), [&] { return &p->as_object(); });
    require_members(*p, "protocol", {"name", "params"});
    spec.protocol = get_string(*p, "protocol", "name", spec.protocol);
    if (const JsonValue* params = p->find("params")) {
      spec.protocol_params = parse_params(*params, "protocol.params");
    }
  }

  if (const JsonValue* a = doc.find("adversary")) {
    at(std::string("adversary"), [&] { return &a->as_object(); });
    require_members(*a, "adversary", {"name", "params"});
    spec.adversary = get_string(*a, "adversary", "name", spec.adversary);
    if (const JsonValue* params = a->find("params")) {
      spec.adversary_params = parse_params(*params, "adversary.params");
    }
  }

  if (const JsonValue* e = doc.find("engine")) {
    at(std::string("engine"), [&] { return &e->as_object(); });
    require_members(*e, "engine",
                    {"kind", "scheduler", "fanout", "substrate", "pull",
                     "loss_prob", "max_rounds", "max_steps", "threads"});
    spec.engine = get_string(*e, "engine", "kind", spec.engine);
    spec.scheduler = get_string(*e, "engine", "scheduler", spec.scheduler);
    spec.fanout = get_u64(*e, "engine", "fanout", spec.fanout);
    spec.substrate = get_string(*e, "engine", "substrate", spec.substrate);
    spec.pull = get_bool(*e, "engine", "pull", spec.pull);
    spec.loss_prob = get_number(*e, "engine", "loss_prob", spec.loss_prob);
    spec.max_rounds = static_cast<Round>(get_u64(
        *e, "engine", "max_rounds", static_cast<std::uint64_t>(spec.max_rounds)));
    spec.max_steps = static_cast<Count>(get_u64(
        *e, "engine", "max_steps", static_cast<std::uint64_t>(spec.max_steps)));
    spec.engine_threads =
        get_u64(*e, "engine", "threads", spec.engine_threads);
  }

  if (const JsonValue* b = doc.find("billboard")) {
    at(std::string("billboard"), [&] { return &b->as_object(); });
    require_members(*b, "billboard", {"backend"});
    spec.billboard = get_string(*b, "billboard", "backend", spec.billboard);
  }

  if (const JsonValue* c = doc.find("churn")) {
    at(std::string("churn"), [&] { return &c->as_object(); });
    require_members(*c, "churn",
                    {"arrival_window", "depart_frac", "depart_round"});
    spec.arrival_window = static_cast<Round>(
        get_u64(*c, "churn", "arrival_window",
                static_cast<std::uint64_t>(spec.arrival_window)));
    spec.depart_frac = get_number(*c, "churn", "depart_frac", spec.depart_frac);
    spec.depart_round = static_cast<Round>(
        get_u64(*c, "churn", "depart_round",
                static_cast<std::uint64_t>(spec.depart_round)));
  }

  if (const JsonValue* t = doc.find("trials")) {
    at(std::string("trials"), [&] { return &t->as_object(); });
    require_members(*t, "trials", {"count", "seed", "threads"});
    spec.trials = get_u64(*t, "trials", "count", spec.trials);
    spec.seed = get_u64(*t, "trials", "seed", spec.seed);
    spec.threads = get_u64(*t, "trials", "threads", spec.threads);
  }

  spec.validate();
  return spec;
}

ScenarioSpec ScenarioSpec::load_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("scenario: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return from_json(buffer.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  } catch (const obs::JsonParseError& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void ScenarioSpec::to_json(std::ostream& os) const {
  obs::JsonWriter json(os);
  json.begin_object();
  json.member("schema", kSchema);
  if (!name.empty()) json.member("name", name);
  if (!description.empty()) json.member("description", description);

  json.key("world").begin_object();
  json.member("kind", world);
  json.member("n", static_cast<std::uint64_t>(n));
  json.member("m", static_cast<std::uint64_t>(m));
  json.member("good", static_cast<std::uint64_t>(good));
  json.member("alpha", alpha);
  if (resolved_world() == "cost-classes") {
    json.member("cost_classes", static_cast<std::uint64_t>(cost_classes));
    json.member("cheapest_good_class",
                static_cast<std::uint64_t>(cheapest_good_class));
  }
  json.end_object();

  json.key("protocol").begin_object();
  json.member("name", protocol);
  json.key("params");
  write_params(json, protocol_params);
  json.end_object();

  json.key("adversary").begin_object();
  json.member("name", adversary);
  json.key("params");
  write_params(json, adversary_params);
  json.end_object();

  json.key("engine").begin_object();
  json.member("kind", engine);
  json.member("scheduler", scheduler);
  json.member("fanout", static_cast<std::uint64_t>(fanout));
  json.member("substrate", substrate);
  json.member("pull", pull);
  json.member("loss_prob", loss_prob);
  json.member("max_rounds", static_cast<std::uint64_t>(max_rounds));
  json.member("max_steps", static_cast<std::uint64_t>(max_steps));
  json.member("threads", static_cast<std::uint64_t>(engine_threads));
  json.end_object();

  json.key("billboard").begin_object();
  json.member("backend", billboard);
  json.end_object();

  json.key("churn").begin_object();
  json.member("arrival_window", static_cast<std::uint64_t>(arrival_window));
  json.member("depart_frac", depart_frac);
  json.member("depart_round", static_cast<std::uint64_t>(depart_round));
  json.end_object();

  json.key("trials").begin_object();
  json.member("count", static_cast<std::uint64_t>(trials));
  json.member("seed", seed);
  json.member("threads", static_cast<std::uint64_t>(threads));
  json.end_object();

  json.end_object();
  os << "\n";
}

std::string ScenarioSpec::to_json_string() const {
  std::ostringstream out;
  to_json(out);
  return out.str();
}

void ScenarioSpec::save_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::invalid_argument("scenario: cannot open " + path +
                                " for writing");
  }
  to_json(file);
}

namespace {

double parse_double_value(std::string_view key, std::string_view text) {
  if (text == "true") return 1.0;
  if (text == "false") return 0.0;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument("--set " + std::string(key) + ": '" +
                                std::string(text) + "' is not a number");
  }
  return value;
}

std::size_t parse_size_value(std::string_view key, std::string_view text) {
  const double value = parse_double_value(key, text);
  if (value < 0.0 || value != std::floor(value)) {
    throw std::invalid_argument("--set " + std::string(key) + ": '" +
                                std::string(text) +
                                "' is not a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

void apply_override(ScenarioSpec& spec, std::string_view assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::invalid_argument("--set wants key=value, got: " +
                                std::string(assignment));
  }
  const std::string_view key = assignment.substr(0, eq);
  const std::string_view value = assignment.substr(eq + 1);

  // Dotted paths address the open parameter maps (and the billboard
  // backend, whose value is a string, not a number).
  if (key == "billboard.backend") {
    spec.billboard = std::string(value);
    return;
  }
  if (key.substr(0, 9) == "protocol." && key.size() > 9) {
    spec.protocol_params.set(std::string(key.substr(9)),
                             parse_double_value(key, value));
    return;
  }
  if (key.substr(0, 10) == "adversary." && key.size() > 10) {
    spec.adversary_params.set(std::string(key.substr(10)),
                              parse_double_value(key, value));
    return;
  }

  if (key == "n") {
    spec.n = parse_size_value(key, value);
  } else if (key == "m") {
    spec.m = parse_size_value(key, value);
  } else if (key == "good") {
    spec.good = parse_size_value(key, value);
  } else if (key == "alpha") {
    spec.alpha = parse_double_value(key, value);
  } else if (key == "world") {
    spec.world = std::string(value);
  } else if (key == "cost_classes") {
    spec.cost_classes = parse_size_value(key, value);
  } else if (key == "cheapest_good_class") {
    spec.cheapest_good_class = parse_size_value(key, value);
  } else if (key == "protocol") {
    spec.protocol = std::string(value);
  } else if (key == "adversary") {
    spec.adversary = std::string(value);
  } else if (key == "engine") {
    spec.engine = std::string(value);
  } else if (key == "scheduler") {
    spec.scheduler = std::string(value);
  } else if (key == "fanout") {
    spec.fanout = parse_size_value(key, value);
  } else if (key == "substrate") {
    spec.substrate = std::string(value);
  } else if (key == "pull") {
    spec.pull = parse_double_value(key, value) != 0.0;
  } else if (key == "loss_prob") {
    spec.loss_prob = parse_double_value(key, value);
  } else if (key == "max_rounds") {
    spec.max_rounds = static_cast<Round>(parse_size_value(key, value));
  } else if (key == "max_steps") {
    spec.max_steps = static_cast<Count>(parse_size_value(key, value));
  } else if (key == "engine_threads") {
    spec.engine_threads = parse_size_value(key, value);
  } else if (key == "arrival_window") {
    spec.arrival_window = static_cast<Round>(parse_size_value(key, value));
  } else if (key == "depart_frac") {
    spec.depart_frac = parse_double_value(key, value);
  } else if (key == "depart_round") {
    spec.depart_round = static_cast<Round>(parse_size_value(key, value));
  } else if (key == "trials") {
    spec.trials = parse_size_value(key, value);
  } else if (key == "seed") {
    // Full 64-bit range (a double round-trip would clip above 2^53).
    std::uint64_t seed = 0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), seed);
    if (ec != std::errc() || ptr != value.data() + value.size()) {
      throw std::invalid_argument("--set seed: '" + std::string(value) +
                                  "' is not a non-negative integer");
    }
    spec.seed = seed;
  } else if (key == "threads") {
    spec.threads = parse_size_value(key, value);
  } else if (key == "name") {
    spec.name = std::string(value);
  } else {
    throw std::invalid_argument(
        "--set: unknown key '" + std::string(key) +
        "' (known: n, m, good, alpha, world, cost_classes, "
        "cheapest_good_class, protocol, adversary, engine, scheduler, "
        "fanout, substrate, pull, loss_prob, max_rounds, max_steps, "
        "engine_threads, arrival_window, "
        "depart_frac, depart_round, trials, seed, threads, name, "
        "protocol.<param>, adversary.<param>, billboard.backend)");
  }
}

}  // namespace acp::scenario
