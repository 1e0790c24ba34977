// Text syntax for the supported ASP fragment.
//
// Grammar (informally):
//
//   program     := { statement }
//   statement   := rule | constraint | choice | minimize
//   rule        := atom [ ":-" body ] "."
//   constraint  := ":-" body "."
//   choice      := [ int ] "{" element { ";" element } "}" [ int ] [ ":-" body ] "."
//   element     := atom [ ":" literal { "," literal } ]
//   minimize    := "#minimize" "{" melem { ";" melem } "}" "."
//   melem       := int [ "@" int ] { "," term } [ ":" literal { "," literal } ]
//   body        := bodylit { "," bodylit }
//   bodylit     := [ "not" ] atom | term cmp term
//   cmp         := "=" | "==" | "!=" | "<" | "<=" | ">" | ">="
//   atom        := identifier [ "(" term { "," term } ")" ]
//   term        := integer | identifier | VARIABLE | "string" | fn "(" ... ")"
//
// `%` starts a line comment.  Identifiers beginning with a lowercase letter
// are symbolic constants / function names; identifiers beginning with an
// uppercase letter or `_` are variables.
#pragma once

#include <string_view>

#include "src/asp/program.hpp"

namespace splice::asp {

/// Parse a program; throws splice::ParseError with position info on error.
Program parse_program(std::string_view text);

/// Parse statements into an existing program (appends).  `origin` places
/// text embedded in a source file: line numbers count from origin.line
/// and every location carries origin.file; columns are unchanged.
void parse_into(Program& program, std::string_view text,
                SourceLoc origin = {});

/// Parse a single term, e.g. `node("example")`.
Term parse_term_text(std::string_view text);

}  // namespace splice::asp
