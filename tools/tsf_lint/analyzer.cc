#include "tsf_lint/analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace tsf::lint {
namespace {

unsigned annotation_for(const std::string& t) {
  if (t == "TSF_REALTIME") return kRealtime;
  if (t == "TSF_NO_ALLOC") return kNoAlloc;
  if (t == "TSF_DETERMINISM_CRITICAL") return kDeterminismCritical;
  if (t == "TSF_BARRIER_ONLY") return kBarrierOnly;
  if (t == "TSF_WORKER_PHASE") return kWorkerPhase;
  return 0;
}

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",    "switch",   "return",
      "catch",    "sizeof",   "alignof",  "alignas",  "decltype",
      "noexcept", "static_assert",        "typeid",   "co_await",
      "co_return", "co_yield", "requires", "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast"};
  return kw;
}

// Statement keywords that may directly precede a call expression — a call
// candidate whose previous token is any *other* identifier is treated as a
// declaration (`Type name(...)`) and skipped.
const std::set<std::string>& call_preceders() {
  static const std::set<std::string> kw = {"return", "throw", "else",
                                           "do",     "goto",  "case"};
  return kw;
}

struct BadToken {
  const char* token;
  const char* rule;
  const char* what;
  bool call_only;  // flag only when followed by '(' (function-style use)
};

// Rule family 1: RT-safety. `rt-alloc` applies to TSF_NO_ALLOC and
// TSF_REALTIME; the rest to TSF_REALTIME only.
const BadToken kRtBad[] = {
    {"malloc", "rt-alloc", "malloc", true},
    {"calloc", "rt-alloc", "calloc", true},
    {"realloc", "rt-alloc", "realloc", true},
    {"free", "rt-alloc", "free", true},
    {"strdup", "rt-alloc", "strdup", true},
    {"strndup", "rt-alloc", "strndup", true},
    {"posix_memalign", "rt-alloc", "posix_memalign", true},
    {"aligned_alloc", "rt-alloc", "aligned_alloc", true},
    {"make_unique", "rt-alloc", "std::make_unique", true},
    {"make_shared", "rt-alloc", "std::make_shared", true},
    {"new", "rt-alloc", "operator new", false},
    {"delete", "rt-alloc", "operator delete", false},
    {"mutex", "rt-block", "std::mutex", false},
    {"recursive_mutex", "rt-block", "std::recursive_mutex", false},
    {"timed_mutex", "rt-block", "std::timed_mutex", false},
    {"shared_mutex", "rt-block", "std::shared_mutex", false},
    {"condition_variable", "rt-block", "std::condition_variable", false},
    {"condition_variable_any", "rt-block", "std::condition_variable_any",
     false},
    {"lock_guard", "rt-block", "std::lock_guard", false},
    {"unique_lock", "rt-block", "std::unique_lock", false},
    {"scoped_lock", "rt-block", "std::scoped_lock", false},
    {"shared_lock", "rt-block", "std::shared_lock", false},
    {"sleep", "rt-block", "sleep", true},
    {"usleep", "rt-block", "usleep", true},
    {"nanosleep", "rt-block", "nanosleep", true},
    {"sleep_for", "rt-block", "sleep_for", true},
    {"sleep_until", "rt-block", "sleep_until", true},
    {"pthread_mutex_lock", "rt-block", "pthread_mutex_lock", true},
    {"pthread_cond_wait", "rt-block", "pthread_cond_wait", true},
    {"sem_wait", "rt-block", "sem_wait", true},
    {"printf", "rt-io", "printf", true},
    {"fprintf", "rt-io", "fprintf", true},
    {"vfprintf", "rt-io", "vfprintf", true},
    {"puts", "rt-io", "puts", true},
    {"fputs", "rt-io", "fputs", true},
    {"fopen", "rt-io", "fopen", true},
    {"fclose", "rt-io", "fclose", true},
    {"fread", "rt-io", "fread", true},
    {"fwrite", "rt-io", "fwrite", true},
    {"fflush", "rt-io", "fflush", true},
    {"cout", "rt-io", "std::cout", false},
    {"cerr", "rt-io", "std::cerr", false},
    {"clog", "rt-io", "std::clog", false},
    {"ofstream", "rt-io", "std::ofstream", false},
    {"ifstream", "rt-io", "std::ifstream", false},
    {"fstream", "rt-io", "std::fstream", false},
    {"throw", "rt-throw", "throw expression", false},
};

// Rule family 2: determinism. Wall clocks and ambient randomness must not
// feed fingerprints, trace output or JSON. steady_clock is deliberately
// absent: host-seconds gauges are allowed to be non-reproducible.
const BadToken kDetBad[] = {
    {"rand", "det-random", "rand()", true},
    {"srand", "det-random", "srand()", true},
    {"rand_r", "det-random", "rand_r()", true},
    {"drand48", "det-random", "drand48()", true},
    {"lrand48", "det-random", "lrand48()", true},
    {"random_shuffle", "det-random", "std::random_shuffle", true},
    {"random_device", "det-random", "std::random_device", false},
    {"default_random_engine", "det-random", "std::default_random_engine",
     false},
    {"system_clock", "det-clock", "std::chrono::system_clock", false},
    {"high_resolution_clock", "det-clock",
     "std::chrono::high_resolution_clock", false},
    {"gettimeofday", "det-clock", "gettimeofday()", true},
    {"localtime", "det-clock", "localtime()", true},
    {"gmtime", "det-clock", "gmtime()", true},
    {"strftime", "det-clock", "strftime()", true},
};

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {
      "rt-alloc",   "rt-block",  "rt-io",
      "rt-throw",   "det-random", "det-clock",
      "det-unordered-iter", "phase-order"};
  return rules;
}

bool is_unordered_container(const std::string& t) {
  return t == "unordered_map" || t == "unordered_set" ||
         t == "unordered_multimap" || t == "unordered_multiset";
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

void Analyzer::add_file(LexedFile file) { files_.push_back(std::move(file)); }

// ------------------------------------------------------------- extraction

void Analyzer::extract(std::size_t fi) {
  const std::vector<Token>& toks = files_[fi].tokens;
  std::vector<std::string>& unordered = unordered_names_[fi];

  struct Scope {
    std::string name;
    bool is_class = false;
    int depth = 0;  // brace depth *inside* the scope
  };
  std::vector<Scope> scopes;
  int depth = 0;
  std::size_t last_boundary = 0;   // token index of the last ; { } or ':'
  std::size_t current_body_end = 0;  // nothing inside a body is re-scanned

  auto is_punct = [&](std::size_t i, const char* p) {
    return i < toks.size() && toks[i].kind == TokKind::kPunct &&
           toks[i].text == p;
  };
  auto is_ident = [&](std::size_t i) {
    return i < toks.size() && toks[i].kind == TokKind::kIdent;
  };
  auto match_forward = [&](std::size_t open, const char* o, const char* c) {
    // Index of the punct matching toks[open]; toks.size() when unmatched.
    int bal = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
      if (is_punct(j, o)) ++bal;
      if (is_punct(j, c) && --bal == 0) return j;
    }
    return toks.size();
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        ++depth;
        last_boundary = i;
      } else if (t.text == "}") {
        --depth;
        last_boundary = i;
        while (!scopes.empty() && scopes.back().depth > depth) {
          scopes.pop_back();
        }
      } else if (t.text == ";") {
        last_boundary = i;
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;

    // Access specifiers reset the annotation window.
    if ((t.text == "public" || t.text == "private" ||
         t.text == "protected") &&
        is_punct(i + 1, ":")) {
      last_boundary = i + 1;
      ++i;
      continue;
    }

    // namespace N { ... } — push a named (or anonymous) namespace scope.
    if (t.text == "namespace") {
      std::size_t j = i + 1;
      std::string name;
      while (is_ident(j) || is_punct(j, "::")) {
        name += toks[j].text;
        ++j;
      }
      if (is_punct(j, "{")) {
        ++depth;
        scopes.push_back({name, /*is_class=*/false, depth});
        last_boundary = j;
        i = j;
      }
      continue;
    }

    // class/struct definition — push a class scope (skip `enum class`).
    if ((t.text == "class" || t.text == "struct") &&
        !(i > 0 && is_ident(i - 1) && toks[i - 1].text == "enum")) {
      std::size_t j = i + 1;
      std::string name;
      if (is_ident(j)) {
        name = toks[j].text;
        ++j;
        // `struct Outer::Inner : Base {` — the innermost name is the class.
        while (is_punct(j, "::") && is_ident(j + 1)) {
          name = toks[j + 1].text;
          j += 2;
        }
      }
      int angle = 0;
      for (; j < toks.size(); ++j) {
        if (is_punct(j, "<")) ++angle;
        if (is_punct(j, ">")) --angle;
        if (angle > 0) continue;
        if (is_punct(j, ";") || is_punct(j, "(") || is_punct(j, "=")) break;
        if (is_punct(j, "{")) {
          ++depth;
          scopes.push_back({name, /*is_class=*/true, depth});
          last_boundary = j;
          i = j;
          break;
        }
      }
      continue;
    }

    // Unordered-container declarations: `unordered_map<...> name`.
    if (is_unordered_container(t.text) && is_punct(i + 1, "<")) {
      const std::size_t close = match_forward(i + 1, "<", ">");
      if (close < toks.size() && is_ident(close + 1)) {
        unordered.push_back(toks[close + 1].text);
      }
      continue;
    }

    // Member-variable declarations directly in a class body — `Type<...>*
    // name ;` (with optional = / { initializer) — feed the receiver-typed
    // call resolution. The depth check keeps method-body locals out.
    if (!scopes.empty() && scopes.back().is_class &&
        depth == scopes.back().depth) {
      std::size_t j = i;
      while (is_ident(j) &&
             (toks[j].text == "static" || toks[j].text == "const" ||
              toks[j].text == "mutable" || toks[j].text == "constexpr" ||
              toks[j].text == "inline" || toks[j].text == "volatile")) {
        ++j;
      }
      if (is_ident(j) && keywords().count(toks[j].text) == 0) {
        std::string type = toks[j].text;
        ++j;
        while (is_punct(j, "::") && is_ident(j + 1)) {
          type = toks[j + 1].text;
          j += 2;
        }
        if (is_punct(j, "<")) {
          const std::size_t close = match_forward(j, "<", ">");
          // Smart pointers forward operator-> to the pointee: the receiver's
          // effective type is the last name inside the angle brackets.
          if ((type == "unique_ptr" || type == "shared_ptr") &&
              close < toks.size() && is_ident(close - 1)) {
            type = toks[close - 1].text;
          }
          j = close;
          if (j < toks.size()) ++j;
        }
        while (is_punct(j, "*") || is_punct(j, "&")) ++j;
        if (is_ident(j) && type != "using" && type != "typedef" &&
            (is_punct(j + 1, ";") || is_punct(j + 1, "=") ||
             is_punct(j + 1, "{"))) {
          member_types_[scopes.back().name][toks[j].text] = type;
        }
      }
    }

    // Function signature candidate: ident '(' ...
    if (!is_punct(i + 1, "(")) continue;
    if (keywords().count(t.text) != 0) continue;
    if (i > 0 && (is_punct(i - 1, ".") || is_punct(i - 1, "->"))) continue;

    const std::size_t close = match_forward(i + 1, "(", ")");
    if (close >= toks.size()) continue;

    // Walk the trailer to decide definition / declaration / neither.
    std::size_t k = close + 1;
    bool is_def = false, is_decl = false;
    std::size_t body_open = 0;
    while (k < toks.size()) {
      if (is_ident(k) && (toks[k].text == "const" ||
                          toks[k].text == "override" ||
                          toks[k].text == "final" ||
                          toks[k].text == "mutable" ||
                          toks[k].text == "volatile" ||
                          toks[k].text == "noexcept")) {
        if (toks[k].text == "noexcept" && is_punct(k + 1, "(")) {
          k = match_forward(k + 1, "(", ")");
          if (k >= toks.size()) break;
        }
        ++k;
        continue;
      }
      if (is_punct(k, "->")) {  // trailing return type
        ++k;
        while (k < toks.size() && !is_punct(k, "{") && !is_punct(k, ";") &&
               !is_punct(k, "=")) {
          ++k;
        }
        continue;
      }
      if (is_punct(k, ":")) {  // constructor init list
        ++k;
        bool ok = true;
        while (k < toks.size()) {
          while (is_ident(k) || is_punct(k, "::") || is_punct(k, "<") ||
                 is_punct(k, ">") || is_punct(k, ",")) {
            // `,` between list entries; idents/templates within names.
            ++k;
          }
          if (is_punct(k, "(")) {
            k = match_forward(k, "(", ")") + 1;
            continue;
          }
          if (is_punct(k, "{")) {
            // Either a brace-init entry or the body. A brace-init is
            // followed by ',' or the body's '{'; the body ends the list.
            const std::size_t end = match_forward(k, "{", "}");
            if (end < toks.size() &&
                (is_punct(end + 1, ",") || is_punct(end + 1, "{"))) {
              k = end + 1;
              continue;
            }
            break;  // this '{' opens the body
          }
          ok = false;
          break;
        }
        if (!ok || k >= toks.size() || !is_punct(k, "{")) {
          is_def = is_decl = false;
        } else {
          is_def = true;
          body_open = k;
        }
        break;
      }
      if (is_punct(k, "{")) {
        is_def = true;
        body_open = k;
        break;
      }
      if (is_punct(k, ";")) {
        is_decl = true;
        break;
      }
      if (is_punct(k, "=")) {
        if ((toks[k + 1].kind == TokKind::kNumber ||
             (is_ident(k + 1) && (toks[k + 1].text == "default" ||
                                  toks[k + 1].text == "delete"))) &&
            is_punct(k + 2, ";")) {
          is_decl = true;
        }
        break;
      }
      break;  // anything else: not a function signature
    }
    if (!is_def && !is_decl) continue;
    if (i < current_body_end) continue;  // inside another function's body

    // Qualified name: explicit Class:: wins, then enclosing class scope.
    std::string qualifier;
    std::size_t sig_name_start = i;
    {
      std::size_t r = i;
      while (r >= 2 && is_punct(r - 1, "::") && is_ident(r - 2)) {
        if (qualifier.empty()) qualifier = toks[r - 2].text;
        r -= 2;
        sig_name_start = r;
      }
      // Innermost explicit qualifier is the owning class: A::B::f -> B.
      if (!qualifier.empty()) qualifier = toks[i - 2].text;
    }
    if (qualifier.empty()) {
      for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        if (it->is_class) {
          qualifier = it->name;
          break;
        }
      }
    }

    FunctionInfo fn;
    fn.simple = t.text;
    fn.qualified = qualifier.empty() ? fn.simple : qualifier + "::" + fn.simple;
    fn.file_index = fi;
    fn.line = t.line;
    for (std::size_t a = last_boundary; a < sig_name_start; ++a) {
      if (toks[a].kind == TokKind::kIdent) {
        fn.annotations |= annotation_for(toks[a].text);
      }
    }
    if (is_def) {
      const std::size_t body_close = match_forward(body_open, "{", "}");
      fn.has_body = true;
      fn.body_begin = body_open;
      fn.body_end = body_close;
      current_body_end = body_close;
      // Collect call sites inside the body.
      for (std::size_t c = body_open + 1; c < body_close; ++c) {
        if (toks[c].kind != TokKind::kIdent) continue;
        if (!is_punct(c + 1, "(")) continue;
        if (keywords().count(toks[c].text) != 0) continue;
        if (c > 0 && is_ident(c - 1) &&
            call_preceders().count(toks[c - 1].text) == 0) {
          continue;  // `Type name(...)` declaration, not a call
        }
        Call call;
        call.name = toks[c].text;
        call.line = toks[c].line;
        if (c >= 2 && is_punct(c - 1, "::") && is_ident(c - 2)) {
          call.qualifier = toks[c - 2].text;
        } else if (c >= 1 &&
                   (is_punct(c - 1, ".") || is_punct(c - 1, "->"))) {
          // Walk the receiver chain leftward: `a.b->f(` yields {"a","b"}.
          // A chain off a non-identifier (a call result, a dereference)
          // stays empty — the resolver treats that as unresolvable.
          call.member_call = true;
          std::size_t r = c - 1;
          while (r >= 1 && (is_punct(r, ".") || is_punct(r, "->")) &&
                 is_ident(r - 1)) {
            call.receiver_chain.insert(call.receiver_chain.begin(),
                                       toks[r - 1].text);
            if (r < 2) break;
            r -= 2;
          }
          if (r >= 1 && (is_punct(r, ".") || is_punct(r, "->")) &&
              !is_ident(r - 1)) {
            call.receiver_chain.clear();  // rooted at an expression
          }
        }
        fn.calls.push_back(std::move(call));
      }
    }
    functions_.push_back(std::move(fn));
  }
}

void Analyzer::merge_annotations() {
  std::map<std::string, unsigned> merged;
  for (const FunctionInfo& f : functions_) {
    merged[f.qualified] |= f.annotations;
  }
  annotated_count_ = 0;
  for (const auto& [name, mask] : merged) {
    if (mask != 0) ++annotated_count_;
  }
  for (FunctionInfo& f : functions_) {
    f.annotations = merged[f.qualified];
  }
}

std::vector<std::size_t> Analyzer::resolve(const Call& call,
                                           const FunctionInfo& caller) const {
  auto collapse = [&](std::vector<std::size_t> in) {
    // A declaration and its out-of-line definition are one function, not an
    // ambiguity: collapse to one entry per qualified name, preferring the
    // entry with a body (annotations are already merged across all of them).
    std::map<std::string, std::size_t> by_name;
    for (std::size_t i : in) {
      auto [it, inserted] = by_name.emplace(functions_[i].qualified, i);
      if (!inserted && functions_[i].has_body &&
          !functions_[it->second].has_body) {
        it->second = i;
      }
    }
    std::vector<std::size_t> out;
    for (const auto& [name, i] : by_name) out.push_back(i);
    return out;
  };
  auto methods_of = [&](const std::string& cls) {
    std::vector<std::size_t> out;
    const std::string wanted = cls + "::" + call.name;
    for (std::size_t i = 0; i < functions_.size(); ++i) {
      if (functions_[i].qualified == wanted) out.push_back(i);
    }
    return collapse(std::move(out));
  };
  const std::string caller_class =
      caller.qualified.size() > caller.simple.size()
          ? caller.qualified.substr(
                0, caller.qualified.size() - caller.simple.size() - 2)
          : std::string();

  if (!call.qualifier.empty()) return methods_of(call.qualifier);

  if (call.member_call) {
    // Walk the receiver chain through the member-type map. A hop through a
    // name we have no type for (a local, a std:: container, an expression)
    // dead-ends the chain — unresolved beats a wrong simple-name guess,
    // which would convict `heap_.pop()` of being `MpscQueue::pop`.
    std::string cls = caller_class;
    for (const std::string& recv : call.receiver_chain) {
      if (recv == "this") continue;
      const auto cls_it = member_types_.find(cls);
      if (cls_it == member_types_.end()) return {};
      const auto mem_it = cls_it->second.find(recv);
      if (mem_it == cls_it->second.end()) return {};
      cls = mem_it->second;
    }
    if (call.receiver_chain.empty()) return {};
    return methods_of(cls);
  }

  // Plain call: the caller's own class first (ordinary member lookup), then
  // the global simple-name match (free functions, inherited members).
  if (!caller_class.empty()) {
    std::vector<std::size_t> own = methods_of(caller_class);
    if (!own.empty()) return own;
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    if (functions_[i].simple == call.name) out.push_back(i);
  }
  return collapse(std::move(out));
}

// ------------------------------------------------------------ rule passes

namespace {

// Scans a function body for forbidden tokens. `context` is appended to the
// message for direct-callee findings.
void scan_body(const LexedFile& file, const FunctionInfo& fn,
               const BadToken* rules, std::size_t rule_count,
               bool alloc_only, const std::string& holder,
               const std::string& context, std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    for (std::size_t r = 0; r < rule_count; ++r) {
      const BadToken& bad = rules[r];
      if (toks[i].text != bad.token) continue;
      if (alloc_only && std::string_view(bad.rule) != "rt-alloc") continue;
      const bool next_is_paren = i + 1 < toks.size() &&
                                 toks[i + 1].kind == TokKind::kPunct &&
                                 toks[i + 1].text == "(";
      // `<` admits template-argument calls (make_unique<T>(...)).
      const bool next_is_call = next_is_paren ||
                                (i + 1 < toks.size() &&
                                 toks[i + 1].kind == TokKind::kPunct &&
                                 toks[i + 1].text == "<");
      if (bad.call_only && !next_is_call) continue;
      if (std::string_view(bad.token) == "new") {
        const bool after_operator = i > 0 &&
                                    toks[i - 1].kind == TokKind::kIdent &&
                                    toks[i - 1].text == "operator";
        // Placement new constructs in place; only `operator new(...)`
        // spelled out is still an allocation.
        if (next_is_paren && !after_operator) continue;
      }
      Finding f;
      f.file = file.path;
      f.line = toks[i].line;
      f.rule = bad.rule;
      f.function = holder;
      f.message = std::string(bad.what) + " forbidden here" + context;
      findings->push_back(std::move(f));
      break;
    }
  }
}

}  // namespace

void Analyzer::check_rt_rules(std::vector<Finding>* findings) const {
  // (callee index, rule-agnostic) dedupe so one dirty helper shared by many
  // annotated callers is reported once.
  std::set<std::size_t> scanned_callees;
  for (const FunctionInfo& fn : functions_) {
    if (!fn.has_body) continue;
    if ((fn.annotations & (kRealtime | kNoAlloc)) == 0) continue;
    const bool alloc_only = (fn.annotations & kRealtime) == 0;
    const char* marker = alloc_only ? "TSF_NO_ALLOC" : "TSF_REALTIME";
    scan_body(files_[fn.file_index], fn, kRtBad, std::size(kRtBad),
              alloc_only, fn.qualified, "", findings);
    for (const Call& call : fn.calls) {
      const std::vector<std::size_t> cands = resolve(call, fn);
      if (cands.size() != 1) continue;  // ambiguous or unresolved: skip
      const FunctionInfo& callee = functions_[cands[0]];
      if (!callee.has_body) continue;
      if ((callee.annotations & (kRealtime | kNoAlloc)) != 0) continue;
      if (!scanned_callees.insert(cands[0]).second) continue;
      scan_body(files_[callee.file_index], callee, kRtBad, std::size(kRtBad),
                alloc_only, fn.qualified,
                " (in direct callee '" + callee.qualified + "' of " + marker +
                    " '" + fn.qualified + "')",
                findings);
    }
  }
}

void Analyzer::check_det_rules(std::vector<Finding>* findings) const {
  for (const FunctionInfo& fn : functions_) {
    if (!fn.has_body) continue;
    if ((fn.annotations & kDeterminismCritical) == 0) continue;
    const LexedFile& file = files_[fn.file_index];
    scan_body(file, fn, kDetBad, std::size(kDetBad), /*alloc_only=*/false,
              fn.qualified, "", findings);

    // Range-for over an identifier declared (anywhere in this file) with an
    // unordered container type.
    const std::vector<Token>& toks = file.tokens;
    const std::vector<std::string>& unordered =
        unordered_names_[fn.file_index];
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (toks[i].kind != TokKind::kIdent || toks[i].text != "for") continue;
      if (!(toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "("))
        continue;
      int bal = 0;
      std::size_t colon = 0, close = 0;
      for (std::size_t j = i + 1; j < fn.body_end; ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        if (toks[j].text == "(") ++bal;
        if (toks[j].text == ")" && --bal == 0) {
          close = j;
          break;
        }
        if (toks[j].text == ":" && bal == 1 && colon == 0) colon = j;
      }
      if (colon == 0 || close == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind != TokKind::kIdent) continue;
        if (std::find(unordered.begin(), unordered.end(), toks[j].text) ==
            unordered.end()) {
          continue;
        }
        Finding f;
        f.file = file.path;
        f.line = toks[j].line;
        f.rule = "det-unordered-iter";
        f.function = fn.qualified;
        f.message = "iteration over unordered container '" + toks[j].text +
                    "' has hash-dependent order";
        findings->push_back(std::move(f));
        break;
      }
    }
  }
}

void Analyzer::check_phase_order(std::vector<Finding>* findings) const {
  std::set<std::pair<std::string, std::string>> reported;
  auto allowed = [&](const FunctionInfo& root, const FunctionInfo& caller,
                     const FunctionInfo& target) {
    for (const AllowEdge& e : allowlist_) {
      const bool from_ok = e.from == root.qualified ||
                           e.from == root.simple ||
                           e.from == caller.qualified ||
                           e.from == caller.simple;
      const bool to_ok = e.to == target.qualified || e.to == target.simple;
      if (from_ok && to_ok) {
        e.used = true;
        return true;
      }
    }
    return false;
  };

  for (std::size_t w = 0; w < functions_.size(); ++w) {
    const FunctionInfo& root = functions_[w];
    if (!root.has_body) continue;
    if ((root.annotations & kWorkerPhase) == 0) continue;
    if ((root.annotations & kBarrierOnly) != 0) {
      Finding f;
      f.file = files_[root.file_index].path;
      f.line = root.line;
      f.rule = "phase-order";
      f.function = root.qualified;
      f.message = "function is annotated both TSF_WORKER_PHASE and "
                  "TSF_BARRIER_ONLY";
      findings->push_back(std::move(f));
    }

    // BFS from the worker-phase root; parent chain reconstructs the path.
    std::vector<std::size_t> queue = {w};
    std::map<std::size_t, std::size_t> parent;
    std::set<std::size_t> visited = {w};
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const FunctionInfo& cur = functions_[queue[qi]];
      for (const Call& call : cur.calls) {
        const std::vector<std::size_t> cands = resolve(call, cur);
        std::vector<std::size_t> barrier, onward;
        for (std::size_t c : cands) {
          ((functions_[c].annotations & kBarrierOnly) != 0 ? barrier : onward)
              .push_back(c);
        }
        // Only an unambiguous resolution may convict: if the simple name
        // also matches non-barrier definitions the edge is skipped (the
        // allowlist is the escape hatch for real mixed-name cases).
        if (!barrier.empty() && onward.empty()) {
          const FunctionInfo& target = functions_[barrier.front()];
          if (!allowed(root, cur, target) &&
              reported.insert({root.qualified, target.qualified}).second) {
            std::string path = root.qualified;
            std::vector<std::size_t> chain;
            for (std::size_t n = queue[qi]; n != w; n = parent.at(n)) {
              chain.push_back(n);
            }
            for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
              path += " -> " + functions_[*it].qualified;
            }
            path += " -> " + target.qualified;
            Finding f;
            f.file = files_[cur.file_index].path;
            f.line = call.line;
            f.rule = "phase-order";
            f.function = root.qualified;
            f.message = "TSF_BARRIER_ONLY '" + target.qualified +
                        "' is reachable from TSF_WORKER_PHASE code: " + path;
            findings->push_back(std::move(f));
          }
        }
        for (std::size_t c : onward) {
          if (!functions_[c].has_body) continue;
          if (visited.insert(c).second) {
            parent[c] = queue[qi];
            queue.push_back(c);
          }
        }
      }
    }
  }
}

void Analyzer::check_stale_allowlist(std::vector<Finding>* findings) const {
  for (const AllowEdge& e : allowlist_) {
    if (e.used) continue;
    findings->push_back({allowlist_path_, e.line, "allow-stale", "",
                         "allowlist edge '" + e.from + " -> " + e.to +
                             "' waives no phase-order path; delete it"});
  }
}

void Analyzer::check_suppression_comments(
    std::vector<Finding>* findings) const {
  for (const LexedFile& file : files_) {
    for (const Suppression& s : file.suppressions) {
      if (known_rules().count(s.rule) == 0) {
        findings->push_back({file.path, s.line, "allow-unknown-rule", "",
                             "TSF_LINT_ALLOW names unknown rule '" + s.rule +
                                 "'"});
      }
      if (s.justification.empty()) {
        findings->push_back({file.path, s.line, "allow-missing-justification",
                             "",
                             "TSF_LINT_ALLOW[" + s.rule +
                                 "] needs a justification after the colon"});
      }
    }
  }
}

void Analyzer::apply_suppressions(std::vector<Finding>* findings) const {
  auto suppressed = [&](const Finding& f) {
    if (f.rule.rfind("allow-", 0) == 0) return false;
    for (const LexedFile& file : files_) {
      if (file.path != f.file) continue;
      for (const Suppression& s : file.suppressions) {
        if (s.rule != f.rule) continue;
        if (s.justification.empty()) continue;
        if (s.line == f.line || s.end_line == f.line - 1) {
          s.used = true;
          return true;
        }
      }
    }
    return false;
  };
  findings->erase(
      std::remove_if(findings->begin(), findings->end(), suppressed),
      findings->end());
}

std::vector<Finding> Analyzer::run() {
  unordered_names_.resize(files_.size());
  for (std::size_t i = 0; i < files_.size(); ++i) extract(i);
  merge_annotations();

  std::vector<Finding> findings;
  check_suppression_comments(&findings);
  check_rt_rules(&findings);
  check_det_rules(&findings);
  check_phase_order(&findings);
  check_stale_allowlist(&findings);
  apply_suppressions(&findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

bool parse_allowlist(std::string_view text, std::vector<AllowEdge>* out,
                     std::string* error) {
  std::size_t line_no = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    std::string note;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      note = trim(line.substr(hash + 1));
      line = line.substr(0, hash);
    }
    const std::string body = trim(line);
    if (body.empty()) continue;
    const std::size_t arrow = body.find("->");
    if (arrow == std::string::npos) {
      *error = "allowlist line " + std::to_string(line_no) +
               ": expected 'from -> to'";
      return false;
    }
    AllowEdge e;
    e.line = static_cast<int>(line_no);
    e.from = trim(body.substr(0, arrow));
    e.to = trim(body.substr(arrow + 2));
    e.note = std::move(note);
    if (e.from.empty() || e.to.empty()) {
      *error = "allowlist line " + std::to_string(line_no) +
               ": empty endpoint";
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

}  // namespace tsf::lint
