#include "conf/conf.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace bcsim::conf {

namespace {

// ---------------------------------------------------------------------------
// Expression evaluation
//
// Values are evaluated eagerly at assignment time. The grammar (precedence
// climbing, loosest first):
//
//   expr   := or
//   or     := and ('||' and)*
//   and    := cmp ('&&' cmp)*
//   cmp    := sum (('=='|'!='|'<='|'>='|'<'|'>') sum)?
//   sum    := term (('+'|'-') term)*
//   term   := unary (('*'|'/'|'%') unary)*
//   unary  := '-' unary | '!' unary | '(' expr ')' | INT | BOOL | STRING
//           | '$(' key ')'
//
// One pragmatic shortcut sits above the grammar: when the *entire* value
// is a bare word starting with a letter (network = mesh,
// kind = work-queue, source = trace:foo.tr), it is a string literal —
// so enum names and paths don't need quotes, and `work-queue` is not
// parsed as a subtraction. Anything that should be arithmetic starts
// with a digit, '(', '-', '!' or '$('.
// ---------------------------------------------------------------------------

struct EvalCtx {
  const std::map<std::string, Value>& table;
  std::string section;  ///< section of the key being assigned (for bare refs)
  SourceLoc loc;
};

class ExprParser {
 public:
  ExprParser(std::string_view text, const EvalCtx& ctx) : text_(text), ctx_(ctx) {}

  Value parse() {
    Value v = parse_or();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("unexpected trailing text '" + std::string(text_.substr(pos_)) + "'");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ConfError(ctx_.loc, "in expression '" + std::string(text_) + "': " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(std::string_view tok) {
    skip_ws();
    if (text_.substr(pos_, tok.size()) == tok) {
      pos_ += tok.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  static Value make_int(std::int64_t i, const SourceLoc& loc) {
    Value v;
    v.kind = Value::Kind::kInt;
    v.i = i;
    v.loc = loc;
    return v;
  }
  static Value make_bool(bool b, const SourceLoc& loc) {
    Value v;
    v.kind = Value::Kind::kBool;
    v.b = b;
    v.loc = loc;
    return v;
  }

  std::int64_t want_int(const Value& v, const char* op) {
    if (v.kind != Value::Kind::kInt) {
      fail(std::string("operator '") + op + "' needs integer operands, got " +
           std::string(Value::kind_name(v.kind)) + " '" + v.repr() + "'");
    }
    return v.i;
  }
  bool want_bool(const Value& v, const char* op) {
    if (v.kind != Value::Kind::kBool) {
      fail(std::string("operator '") + op + "' needs boolean operands, got " +
           std::string(Value::kind_name(v.kind)) + " '" + v.repr() + "'");
    }
    return v.b;
  }

  Value parse_or() {
    Value v = parse_and();
    while (eat("||")) {
      const bool a = want_bool(v, "||");
      const bool b = want_bool(parse_and(), "||");
      v = make_bool(a || b, ctx_.loc);
    }
    return v;
  }

  Value parse_and() {
    Value v = parse_cmp();
    while (eat("&&")) {
      const bool a = want_bool(v, "&&");
      const bool b = want_bool(parse_cmp(), "&&");
      v = make_bool(a && b, ctx_.loc);
    }
    return v;
  }

  Value parse_cmp() {
    Value lhs = parse_sum();
    static constexpr std::string_view kOps[] = {"==", "!=", "<=", ">=", "<", ">"};
    for (const auto op : kOps) {
      if (!eat(op)) continue;
      const Value rhs = parse_sum();
      if (op == "==" || op == "!=") {
        if (lhs.kind != rhs.kind) {
          fail("cannot compare " + std::string(Value::kind_name(lhs.kind)) + " with " +
               std::string(Value::kind_name(rhs.kind)));
        }
        bool eq = false;
        switch (lhs.kind) {
          case Value::Kind::kInt: eq = lhs.i == rhs.i; break;
          case Value::Kind::kBool: eq = lhs.b == rhs.b; break;
          case Value::Kind::kString: eq = lhs.s == rhs.s; break;
        }
        return make_bool(op == "==" ? eq : !eq, ctx_.loc);
      }
      const std::int64_t a = want_int(lhs, op.data());
      const std::int64_t b = want_int(rhs, op.data());
      bool r = false;
      if (op == "<") r = a < b;
      else if (op == ">") r = a > b;
      else if (op == "<=") r = a <= b;
      else r = a >= b;
      return make_bool(r, ctx_.loc);
    }
    return lhs;
  }

  Value parse_sum() {
    Value v = parse_term();
    for (;;) {
      if (eat("+")) {
        std::int64_t r = 0;
        if (__builtin_add_overflow(want_int(v, "+"), want_int(parse_term(), "+"), &r)) {
          fail("integer overflow in '+'");
        }
        v = make_int(r, ctx_.loc);
      } else if (peek() == '-' && !starts_arrow()) {
        ++pos_;
        std::int64_t r = 0;
        if (__builtin_sub_overflow(want_int(v, "-"), want_int(parse_term(), "-"), &r)) {
          fail("integer overflow in '-'");
        }
        v = make_int(r, ctx_.loc);
      } else {
        return v;
      }
    }
  }

  // no '->' token exists in the grammar; helper kept trivial for clarity
  [[nodiscard]] static bool starts_arrow() { return false; }

  Value parse_term() {
    Value v = parse_unary();
    for (;;) {
      if (eat("*")) {
        std::int64_t r = 0;
        if (__builtin_mul_overflow(want_int(v, "*"), want_int(parse_unary(), "*"), &r)) {
          fail("integer overflow in '*'");
        }
        v = make_int(r, ctx_.loc);
      } else if (eat("/")) {
        const std::int64_t a = want_int(v, "/");
        const std::int64_t b = want_int(parse_unary(), "/");
        if (b == 0) fail("division by zero");
        v = make_int(a / b, ctx_.loc);
      } else if (eat("%")) {
        const std::int64_t a = want_int(v, "%");
        const std::int64_t b = want_int(parse_unary(), "%");
        if (b == 0) fail("modulo by zero");
        v = make_int(a % b, ctx_.loc);
      } else {
        return v;
      }
    }
  }

  Value parse_unary() {
    skip_ws();
    if (pos_ >= text_.size()) fail("expected a value");
    const char c = text_[pos_];
    if (c == '-') {
      ++pos_;
      std::int64_t r = 0;
      if (__builtin_sub_overflow(std::int64_t{0}, want_int(parse_unary(), "-"), &r)) {
        fail("integer overflow in unary '-'");
      }
      return make_int(r, ctx_.loc);
    }
    if (c == '!' && (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '=')) {
      ++pos_;
      return make_bool(!want_bool(parse_unary(), "!"), ctx_.loc);
    }
    if (c == '(') {
      ++pos_;
      Value v = parse_or();
      if (!eat(")")) fail("missing ')'");
      return v;
    }
    if (c == '$') return parse_ref();
    if (c == '"') return parse_quoted();
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) return parse_number();
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      const std::string_view word = text_.substr(start, pos_ - start);
      if (word == "true") return make_bool(true, ctx_.loc);
      if (word == "false") return make_bool(false, ctx_.loc);
      fail("unknown word '" + std::string(word) +
           "' (references are written $(key); strings with operators need quotes)");
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  Value parse_number() {
    const std::size_t start = pos_;
    int base = 10;
    if (text_.substr(pos_, 2) == "0x" || text_.substr(pos_, 2) == "0X") {
      base = 16;
      pos_ += 2;
    }
    std::int64_t v = 0;
    bool any = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      int digit = -1;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (base == 16 && c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
      else if (base == 16 && c >= 'A' && c <= 'F') digit = 10 + (c - 'A');
      else break;
      if (__builtin_mul_overflow(v, std::int64_t{base}, &v) ||
          __builtin_add_overflow(v, std::int64_t{digit}, &v)) {
        fail("integer literal out of range: '" + std::string(text_.substr(start)) + "'");
      }
      any = true;
      ++pos_;
    }
    if (!any) fail("malformed number");
    if (pos_ < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
         text_[pos_] == '.')) {
      fail("malformed number '" +
           std::string(text_.substr(start, pos_ + 1 - start)) +
           "...' (only decimal and 0x hex integers are supported)");
    }
    return make_int(v, ctx_.loc);
  }

  Value parse_quoted() {
    ++pos_;  // opening quote
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      s += text_[pos_++];
    }
    if (pos_ >= text_.size()) fail("unterminated string literal");
    ++pos_;  // closing quote
    Value v;
    v.kind = Value::Kind::kString;
    v.s = std::move(s);
    v.loc = ctx_.loc;
    return v;
  }

  Value parse_ref() {
    if (text_.substr(pos_, 2) != "$(") fail("'$' must start a $(key) reference");
    pos_ += 2;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ')') ++pos_;
    if (pos_ >= text_.size()) fail("unterminated $( reference");
    const std::string name(text_.substr(start, pos_ - start));
    ++pos_;  // ')'
    // Bare names resolve in the current section first, then globally.
    const auto lookup = [&](const std::string& key) -> const Value* {
      const auto it = ctx_.table.find(key);
      return it == ctx_.table.end() ? nullptr : &it->second;
    };
    const Value* v = nullptr;
    if (name.find('.') == std::string::npos && !ctx_.section.empty()) {
      v = lookup(ctx_.section + "." + name);
    }
    if (v == nullptr) v = lookup(name);
    if (v == nullptr) {
      fail("reference $(" + name + ") is not defined at this point");
    }
    Value out = *v;
    out.loc = ctx_.loc;
    return out;
  }

  std::string_view text_;
  const EvalCtx& ctx_;
  std::size_t pos_ = 0;
};

[[nodiscard]] std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

/// Strips an end-of-line comment (a '#' outside of double quotes).
[[nodiscard]] std::string strip_comment(std::string_view line) {
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') quoted = !quoted;
    else if (line[i] == '#' && !quoted) return std::string(line.substr(0, i));
  }
  return std::string(line);
}

[[nodiscard]] bool valid_key_word(std::string_view s) {
  if (s.empty()) return false;
  if (std::isalpha(static_cast<unsigned char>(s[0])) == 0 && s[0] != '_') return false;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

/// The whole-value bare-word rule: letters first, then a charset wide
/// enough for enum names, mnemonics, fault-plan specs, and paths.
[[nodiscard]] bool is_bare_string(std::string_view s) {
  if (s.empty() || std::isalpha(static_cast<unsigned char>(s[0])) == 0) return false;
  if (s == "true" || s == "false") return false;
  bool has_operatorish = false;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '-' ||
        c == '.' || c == ':' || c == '/' || c == '=' || c == ';' || c == ',') {
      has_operatorish = has_operatorish || c == '-';
      continue;
    }
    return false;  // spaces, '$', '(', arithmetic → real expression
  }
  (void)has_operatorish;
  return true;
}

}  // namespace

std::string Value::repr() const {
  switch (kind) {
    case Kind::kInt: return std::to_string(i);
    case Kind::kBool: return b ? "true" : "false";
    case Kind::kString: {
      std::string out = "\"";
      for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return out;
    }
  }
  return "?";
}

void Table::assign(const std::string& key, const std::string& expr,
                   const SourceLoc& loc) {
  const std::string text = trim(expr);
  if (text.empty()) throw ConfError(loc, "key '" + key + "' has an empty value");
  Value v;
  if (is_bare_string(text)) {
    v.kind = Value::Kind::kString;
    v.s = text;
    v.loc = loc;
  } else {
    EvalCtx ctx{entries_, std::string(), loc};
    if (const auto dot = key.rfind('.'); dot != std::string::npos) {
      ctx.section = key.substr(0, dot);
    }
    v = ExprParser(text, ctx).parse();
    v.loc = loc;
  }
  entries_[key] = std::move(v);  // later assignment wins (layering)
}

bool Table::has(std::string_view key) const {
  return entries_.find(std::string(key)) != entries_.end();
}

const Value& Table::require(std::string_view key) const {
  const auto it = entries_.find(std::string(key));
  if (it == entries_.end()) {
    throw ConfError(SourceLoc{}, "internal: required key '" + std::string(key) +
                                     "' is absent");
  }
  consumed_.insert(it->first);
  return it->second;
}

std::int64_t Table::get_int(std::string_view key, std::int64_t def, std::int64_t min,
                            std::int64_t max) const {
  if (!has(key)) return def;
  const Value& v = require(key);
  if (v.kind != Value::Kind::kInt) {
    throw ConfError(v.loc, "key '" + std::string(key) + "' must be an integer, got " +
                               std::string(Value::kind_name(v.kind)) + " " + v.repr());
  }
  if (v.i < min || v.i > max) {
    throw ConfError(v.loc, "key '" + std::string(key) + "' = " + std::to_string(v.i) +
                               " is out of range [" + std::to_string(min) + ", " +
                               std::to_string(max) + "]");
  }
  return v.i;
}

std::uint64_t Table::get_u64(std::string_view key, std::uint64_t def,
                             std::uint64_t min) const {
  if (min > 0) {
    return static_cast<std::uint64_t>(get_int(key, static_cast<std::int64_t>(def),
                                              static_cast<std::int64_t>(min)));
  }
  if (!has(key)) return def;
  const Value& v = require(key);
  if (v.kind != Value::Kind::kInt) {
    throw ConfError(v.loc, "key '" + std::string(key) + "' must be an integer, got " +
                               std::string(Value::kind_name(v.kind)) + " " + v.repr());
  }
  if (v.i < 0) {
    throw ConfError(v.loc,
                    "key '" + std::string(key) + "' must be non-negative, got " +
                        std::to_string(v.i));
  }
  return static_cast<std::uint64_t>(v.i);
}

bool Table::get_bool(std::string_view key, bool def) const {
  if (!has(key)) return def;
  const Value& v = require(key);
  if (v.kind != Value::Kind::kBool) {
    throw ConfError(v.loc, "key '" + std::string(key) + "' must be a boolean, got " +
                               std::string(Value::kind_name(v.kind)) + " " + v.repr());
  }
  return v.b;
}

std::string Table::get_string(std::string_view key, std::string_view def) const {
  if (!has(key)) return std::string(def);
  const Value& v = require(key);
  if (v.kind != Value::Kind::kString) {
    throw ConfError(v.loc, "key '" + std::string(key) + "' must be a string, got " +
                               std::string(Value::kind_name(v.kind)) + " " + v.repr());
  }
  return v.s;
}

std::uint32_t Table::get_u32(std::string_view key, std::uint32_t def, std::uint32_t min,
                             std::uint32_t max) const {
  return static_cast<std::uint32_t>(get_int(key, def, min, max));
}

namespace {

/// Throws unless `s` is one of `allowed`, naming the key and the choices.
void check_name(const Table& t, std::string_view key, const std::string& s,
                const std::vector<std::string_view>& allowed) {
  if (std::find(allowed.begin(), allowed.end(), s) != allowed.end()) return;
  std::string list;
  for (const auto& a : allowed) {
    if (!list.empty()) list += ", ";
    list += a;
  }
  throw ConfError(t.has(key) ? t.loc(key) : SourceLoc{},
                  "key '" + std::string(key) + "' = '" + s + "' is not one of {" + list + "}");
}

}  // namespace

std::string Table::get_name(std::string_view key, std::string_view def,
                            const std::vector<std::string_view>& allowed) const {
  std::string s = get_string(key, def);
  check_name(*this, key, s, allowed);
  return s;
}

std::vector<std::string> Table::get_list(std::string_view key,
                                         const std::vector<std::string_view>& allowed) const {
  std::vector<std::string> out;
  if (!has(key)) return out;
  const std::string list = get_string(key, "");
  for (std::size_t pos = 0, comma = 0; comma != std::string::npos; pos = comma + 1) {
    comma = list.find(',', pos);
    out.push_back(list.substr(pos, comma == std::string::npos ? comma : comma - pos));
    if (!allowed.empty()) check_name(*this, key, out.back(), allowed);
  }
  return out;
}

const SourceLoc& Table::loc(std::string_view key) const {
  const auto it = entries_.find(std::string(key));
  if (it == entries_.end()) {
    throw ConfError(SourceLoc{},
                    "internal: loc() of absent key '" + std::string(key) + "'");
  }
  return it->second.loc;
}

void Table::consume(std::string_view key) const {
  if (const auto it = entries_.find(std::string(key)); it != entries_.end()) {
    consumed_.insert(it->first);
  }
}

void Table::expect_all_consumed(
    const std::vector<std::string_view>& ignored_sections) const {
  for (const auto& [key, value] : entries_) {
    if (consumed_.find(key) != consumed_.end()) continue;
    bool ignored = false;
    for (const auto& sect : ignored_sections) {
      if (key.size() > sect.size() && key.compare(0, sect.size(), sect) == 0 &&
          key[sect.size()] == '.') {
        ignored = true;
        break;
      }
    }
    if (ignored) continue;
    throw ConfError(value.loc, "unknown key '" + key + "'");
  }
}

void Table::dump(std::ostream& os) const {
  // Sectionless keys first: once a [section] header is out, anything
  // printed after it would reparse into that section.
  for (const auto& [key, value] : entries_) {
    if (key.rfind('.') == std::string::npos) {
      os << key << " = " << value.repr() << '\n';
    }
  }
  // std::map keeps keys sorted, so same-section keys are contiguous.
  std::string current_section;
  for (const auto& [key, value] : entries_) {
    const auto dot = key.rfind('.');
    if (dot == std::string::npos) continue;
    const std::string section = key.substr(0, dot);
    if (section != current_section) {
      os << '[' << section << "]\n";
      current_section = section;
    }
    os << key.substr(dot + 1) << " = " << value.repr() << '\n';
  }
}

bool Table::same_values(const Table& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  for (; a != entries_.end(); ++a, ++b) {
    if (a->first != b->first || a->second.kind != b->second.kind) return false;
    switch (a->second.kind) {
      case Value::Kind::kInt:
        if (a->second.i != b->second.i) return false;
        break;
      case Value::Kind::kBool:
        if (a->second.b != b->second.b) return false;
        break;
      case Value::Kind::kString:
        if (a->second.s != b->second.s) return false;
        break;
    }
  }
  return true;
}

namespace {

constexpr std::size_t kMaxIncludeDepth = 16;

void parse_into(Table& t, std::istream& in, const std::string& name,
                std::vector<std::string>* include_stack);

void process_include(Table& t, const std::string& spec, const SourceLoc& loc,
                     std::vector<std::string>* include_stack) {
  namespace fs = std::filesystem;
  fs::path target(spec);
  if (target.is_relative() && loc.file != "<string>" && loc.file.find('<') != 0) {
    target = fs::path(loc.file).parent_path() / target;
  }
  std::error_code ec;
  fs::path canon = fs::weakly_canonical(target, ec);
  if (ec) canon = target;
  if (include_stack != nullptr) {
    if (include_stack->size() >= kMaxIncludeDepth) {
      throw ConfError(loc, "includes nested deeper than " +
                               std::to_string(kMaxIncludeDepth) + " levels");
    }
    for (const auto& f : *include_stack) {
      if (f == canon.string()) {
        throw ConfError(loc, "cyclic include of '" + spec + "'");
      }
    }
  }
  std::ifstream file(target);
  if (!file) {
    throw ConfError(loc, "cannot open included file '" + target.string() + "'");
  }
  std::vector<std::string> local_stack;
  std::vector<std::string>* stack = include_stack != nullptr ? include_stack : &local_stack;
  stack->push_back(canon.string());
  parse_into(t, file, target.string(), stack);
  stack->pop_back();
}

void parse_into(Table& t, std::istream& in, const std::string& name,
                std::vector<std::string>* include_stack) {
  std::string line;
  std::size_t lineno = 0;
  std::string section;
  while (std::getline(in, line)) {
    ++lineno;
    const SourceLoc loc{name, lineno};
    const std::string body = trim(strip_comment(line));
    if (body.empty()) continue;
    if (body.front() == '[') {
      if (body.back() != ']' || body.size() < 3) {
        throw ConfError(loc, "malformed section header '" + body + "'");
      }
      section = trim(std::string_view(body).substr(1, body.size() - 2));
      if (!valid_key_word(section)) {
        throw ConfError(loc, "invalid section name '" + section + "'");
      }
      continue;
    }
    if (body.rfind("include", 0) == 0 &&
        (body.size() == 7 || std::isspace(static_cast<unsigned char>(body[7])) != 0)) {
      std::string spec = trim(std::string_view(body).substr(7));
      if (spec.size() >= 2 && spec.front() == '"' && spec.back() == '"') {
        spec = spec.substr(1, spec.size() - 2);
      }
      if (spec.empty()) throw ConfError(loc, "include needs a file name");
      process_include(t, spec, loc, include_stack);
      continue;
    }
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      throw ConfError(loc, "expected 'key = value', '[section]', or 'include', got '" +
                               body + "'");
    }
    const std::string key_word = trim(std::string_view(body).substr(0, eq));
    if (!valid_key_word(key_word)) {
      throw ConfError(loc, "invalid key name '" + key_word + "'");
    }
    const std::string key = section.empty() ? key_word : section + "." + key_word;
    t.assign(key, body.substr(eq + 1), loc);
  }
}

void apply_overrides(Table& t, const std::vector<Override>& overrides) {
  std::size_t n = 0;
  for (const auto& o : overrides) {
    ++n;
    const SourceLoc loc{"<override -k " + o.key + ">", n};
    if (o.key.empty()) throw ConfError(loc, "override with an empty key");
    t.assign(o.key, o.value, loc);
  }
}

}  // namespace

Table parse_file(const std::string& path, const std::vector<Override>& overrides) {
  std::ifstream in(path);
  if (!in) {
    throw ConfError(SourceLoc{path, 0}, "cannot open config file");
  }
  Table t;
  std::vector<std::string> stack;
  std::error_code ec;
  auto canon = std::filesystem::weakly_canonical(path, ec);
  stack.push_back(ec ? path : canon.string());
  parse_into(t, in, path, &stack);
  apply_overrides(t, overrides);
  return t;
}

Table parse_string(const std::string& text, const std::vector<Override>& overrides,
                   const std::string& name) {
  std::istringstream in(text);
  Table t;
  std::vector<std::string> stack;
  parse_into(t, in, name, &stack);
  apply_overrides(t, overrides);
  return t;
}

Override parse_override(std::string_view arg) {
  const auto eq = arg.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::invalid_argument("-k expects key=value, got '" + std::string(arg) + "'");
  }
  return Override{std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1))};
}

}  // namespace bcsim::conf
