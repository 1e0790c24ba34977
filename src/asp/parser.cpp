#include "src/asp/parser.hpp"

#include <cctype>
#include <optional>

#include "src/support/error.hpp"

namespace splice::asp {

namespace {

enum class Tok {
  End, Ident, Variable, Int, Str,
  LParen, RParen, LBrace, RBrace,
  Comma, Semicolon, Dot, Colon, If,  // If = ":-"
  At, Hash, Not,
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
};

struct Token {
  Tok kind;
  std::string text;
  std::int64_t value = 0;
  std::size_t pos = 0;
  std::uint32_t line = 0;  // 1-based source position
  std::uint32_t col = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text, std::size_t first_line = 1)
      : text_(text), line_(first_line) {
    advance();
  }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::string tok =
        current_.kind == Tok::End ? "end of input" : current_.text;
    throw ParseError("asp: " + why, "", current_.pos, current_.line,
                     current_.col, tok);
  }

 private:
  std::uint32_t col_at(std::size_t pos) const {
    return static_cast<std::uint32_t>(pos - line_start_ + 1);
  }

  [[noreturn]] void fail_here(const std::string& why, std::size_t pos,
                              const std::string& token) const {
    throw ParseError("asp: " + why, "", pos,
                     static_cast<std::uint32_t>(line_), col_at(pos), token);
  }

  void advance() {
    skip_trivia();
    current_.pos = pos_;
    current_.line = static_cast<std::uint32_t>(line_);
    current_.col = col_at(pos_);
    if (pos_ >= text_.size()) {
      current_.kind = Tok::End;
      current_.text.clear();
      current_.value = 0;
      return;
    }
    char c = text_[pos_];
    if (c == '(') { single(Tok::LParen); return; }
    if (c == ')') { single(Tok::RParen); return; }
    if (c == '{') { single(Tok::LBrace); return; }
    if (c == '}') { single(Tok::RBrace); return; }
    if (c == ',') { single(Tok::Comma); return; }
    if (c == ';') { single(Tok::Semicolon); return; }
    if (c == '.') { single(Tok::Dot); return; }
    if (c == '@') { single(Tok::At); return; }
    if (c == '#') { single(Tok::Hash); return; }
    if (c == ':') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
        emit(Tok::If, ":-");
        pos_ += 2;
      } else {
        single(Tok::Colon);
      }
      return;
    }
    if (c == '=') {
      std::size_t len = (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') ? 2 : 1;
      emit(Tok::CmpEq, "=");
      pos_ += len;
      return;
    }
    if (c == '!') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        emit(Tok::CmpNe, "!=");
        pos_ += 2;
        return;
      }
      fail_here("stray '!'", pos_, "!");
    }
    if (c == '<') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        emit(Tok::CmpLe, "<=");
        pos_ += 2;
      } else {
        emit(Tok::CmpLt, "<");
        pos_ += 1;
      }
      return;
    }
    if (c == '>') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        emit(Tok::CmpGe, ">=");
        pos_ += 2;
      } else {
        emit(Tok::CmpGt, ">");
        pos_ += 1;
      }
      return;
    }
    if (c == '"') {
      std::size_t start = ++pos_;
      std::string out;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
          ++pos_;
          out.push_back(text_[pos_] == 'n' ? '\n' : text_[pos_]);
        } else {
          if (text_[pos_] == '\n') {
            ++line_;
            line_start_ = pos_ + 1;
          }
          out.push_back(text_[pos_]);
        }
        ++pos_;
      }
      if (pos_ >= text_.size()) {
        fail_here("unterminated string", current_.pos,
                  std::string(text_.substr(start - 1, std::min<std::size_t>(
                                               text_.size() - (start - 1), 20))));
      }
      ++pos_;  // closing quote
      emit(Tok::Str, std::move(out));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      std::size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      std::string num(text_.substr(start, pos_ - start));
      emit(Tok::Int, num, std::stoll(num));
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      std::string word(text_.substr(start, pos_ - start));
      if (word == "not") {
        emit(Tok::Not, word);
      } else if (std::isupper(static_cast<unsigned char>(word[0])) ||
                 word[0] == '_') {
        emit(Tok::Variable, word);
      } else {
        emit(Tok::Ident, word);
      }
      return;
    }
    fail_here("unexpected character", pos_, std::string(1, c));
  }

  void skip_trivia() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++pos_;
        ++line_;
        line_start_ = pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  void single(Tok kind) {
    emit(kind, std::string(1, text_[pos_]));
    ++pos_;
  }

  /// Fill in the current token's kind/text/value; pos/line/col were already
  /// recorded at the token's first character by advance().
  void emit(Tok kind, std::string text, std::int64_t value = 0) {
    current_.kind = kind;
    current_.text = std::move(text);
    current_.value = value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;        // 1-based current line
  std::size_t line_start_ = 0;  // offset of the current line's first char
  Token current_;
};

class AspParser {
 public:
  AspParser(Program& program, std::string_view text, SourceLoc origin = {})
      : program_(program),
        lex_(text, origin.known() ? origin.line : 1),
        file_(origin.file) {}

  void parse() {
    while (lex_.peek().kind != Tok::End) statement();
  }

  Term parse_single_term() {
    Term t = term();
    if (lex_.peek().kind != Tok::End) lex_.fail("trailing input after term");
    return t;
  }

 private:
  void expect(Tok kind, const char* what) {
    if (lex_.peek().kind != kind) lex_.fail(std::string("expected ") + what);
    lex_.take();
  }

  void statement() {
    const Token& t = lex_.peek();
    SourceLoc loc{t.line, t.col, file_};
    if (t.kind == Tok::Hash) {
      minimize();
      return;
    }
    if (t.kind == Tok::If) {
      lex_.take();
      Rule r;
      r.loc = loc;
      r.head.kind = Head::Kind::None;
      parse_body(r);
      expect(Tok::Dot, "'.'");
      program_.add_rule(std::move(r));
      return;
    }
    if (t.kind == Tok::LBrace || t.kind == Tok::Int) {
      choice_rule(loc);
      return;
    }
    // Normal rule.
    Rule r;
    r.loc = loc;
    r.head.kind = Head::Kind::Atom;
    r.head.atom = atom();
    if (lex_.peek().kind == Tok::If) {
      lex_.take();
      parse_body(r);
    }
    expect(Tok::Dot, "'.'");
    program_.add_rule(std::move(r));
  }

  void choice_rule(SourceLoc loc) {
    Rule r;
    r.loc = loc;
    r.head.kind = Head::Kind::Choice;
    if (lex_.peek().kind == Tok::Int) {
      r.head.lower = lex_.take().value;
    }
    expect(Tok::LBrace, "'{'");
    if (lex_.peek().kind != Tok::RBrace) {
      while (true) {
        ChoiceElement e;
        e.atom = atom();
        if (lex_.peek().kind == Tok::Colon) {
          lex_.take();
          while (true) {
            e.condition.push_back(body_literal_only());
            if (lex_.peek().kind != Tok::Comma) break;
            lex_.take();
          }
        }
        r.head.elements.push_back(std::move(e));
        if (lex_.peek().kind != Tok::Semicolon) break;
        lex_.take();
      }
    }
    expect(Tok::RBrace, "'}'");
    if (lex_.peek().kind == Tok::Int) {
      r.head.upper = lex_.take().value;
    }
    if (lex_.peek().kind == Tok::If) {
      lex_.take();
      parse_body(r);
    }
    expect(Tok::Dot, "'.'");
    program_.add_rule(std::move(r));
  }

  void minimize() {
    lex_.take();  // '#'
    Token word = lex_.take();
    if (word.kind != Tok::Ident || word.text != "minimize") {
      lex_.fail("only #minimize is supported");
    }
    expect(Tok::LBrace, "'{'");
    while (true) {
      MinimizeElement m;
      const Token& w = lex_.peek();
      m.loc = SourceLoc{w.line, w.col, file_};
      if (w.kind != Tok::Int && w.kind != Tok::Variable) {
        lex_.fail("minimize element must start with a weight (integer or variable)");
      }
      m.weight = term();
      if (lex_.peek().kind == Tok::At) {
        lex_.take();
        Token p = lex_.take();
        if (p.kind != Tok::Int) lex_.fail("priority must be an integer");
        m.priority = p.value;
      }
      while (lex_.peek().kind == Tok::Comma) {
        lex_.take();
        m.tuple.push_back(term());
      }
      if (lex_.peek().kind == Tok::Colon) {
        lex_.take();
        while (true) {
          m.condition.push_back(body_literal_only());
          if (lex_.peek().kind != Tok::Comma) break;
          lex_.take();
        }
      }
      program_.add_minimize(std::move(m));
      if (lex_.peek().kind != Tok::Semicolon) break;
      lex_.take();
    }
    expect(Tok::RBrace, "'}'");
    expect(Tok::Dot, "'.'");
  }

  void parse_body(Rule& r) {
    while (true) {
      parse_body_element(r);
      if (lex_.peek().kind != Tok::Comma) break;
      lex_.take();
    }
  }

  /// One body element: literal or comparison.
  void parse_body_element(Rule& r) {
    if (lex_.peek().kind == Tok::Not) {
      lex_.take();
      r.body.push_back({atom(), false});
      return;
    }
    Term t = term();
    std::optional<CmpOp> op = peek_cmp();
    if (op) {
      lex_.take();
      Term rhs = term();
      r.comparisons.push_back({*op, t, rhs});
      return;
    }
    if (t.kind() != TermKind::Sym && t.kind() != TermKind::Fun) {
      lex_.fail("expected an atom in rule body");
    }
    r.body.push_back({t, true});
  }

  /// A literal in contexts where comparisons are not allowed (choice element
  /// and minimize conditions).
  Literal body_literal_only() {
    if (lex_.peek().kind == Tok::Not) {
      lex_.take();
      return {atom(), false};
    }
    return {atom(), true};
  }

  std::optional<CmpOp> peek_cmp() {
    switch (lex_.peek().kind) {
      case Tok::CmpEq: return CmpOp::Eq;
      case Tok::CmpNe: return CmpOp::Ne;
      case Tok::CmpLt: return CmpOp::Lt;
      case Tok::CmpLe: return CmpOp::Le;
      case Tok::CmpGt: return CmpOp::Gt;
      case Tok::CmpGe: return CmpOp::Ge;
      default: return std::nullopt;
    }
  }

  Term atom() {
    Term t = term();
    if (t.kind() != TermKind::Sym && t.kind() != TermKind::Fun) {
      lex_.fail("expected an atom");
    }
    return t;
  }

  Term term() {
    switch (lex_.peek().kind) {
      case Tok::Int:
      case Tok::Str:
      case Tok::Variable:
      case Tok::Ident:
        break;
      default:
        // Diagnose before consuming so the error points at this token.
        lex_.fail("expected a term");
    }
    Token t = lex_.take();
    switch (t.kind) {
      case Tok::Int: return Term::integer(t.value);
      case Tok::Str: return Term::str(t.text);
      case Tok::Variable: return Term::var(t.text);
      case Tok::Ident: {
        if (lex_.peek().kind == Tok::LParen) {
          lex_.take();
          std::vector<Term> args;
          if (lex_.peek().kind != Tok::RParen) {
            while (true) {
              args.push_back(term());
              if (lex_.peek().kind != Tok::Comma) break;
              lex_.take();
            }
          }
          expect(Tok::RParen, "')'");
          return Term::fun(t.text, args);
        }
        return Term::sym(t.text);
      }
      default:
        lex_.fail("expected a term");
    }
  }

  Program& program_;
  Lexer lex_;
  const char* file_;  // stamped on every SourceLoc; may be null
};

}  // namespace

Program parse_program(std::string_view text) {
  Program p;
  parse_into(p, text);
  return p;
}

void parse_into(Program& program, std::string_view text, SourceLoc origin) {
  AspParser(program, text, origin).parse();
}

Term parse_term_text(std::string_view text) {
  Program dummy;
  return AspParser(dummy, text).parse_single_term();
}

}  // namespace splice::asp
