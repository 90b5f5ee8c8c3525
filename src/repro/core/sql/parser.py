"""Recursive-descent parser for LensQL.

One statement per call. The grammar (also documented on
:class:`~repro.core.session.DeepLens`):

.. code-block:: text

    statement   := select | EXPLAIN [ANALYZE] select
                 | CREATE [OR REPLACE] MATERIALIZED VIEW name AS select
                 | REFRESH VIEW name [AS select]
                 | DROP VIEW name
                 | CREATE INDEX ON name '(' name ')'
                   [USING name ['(' name '=' number (',' name '=' number)* ')']]
                 | SHOW COLLECTIONS | SHOW VIEWS | SHOW INDEXES
                 | SHOW STATS FOR name
    select      := SELECT items FROM name [METADATA ONLY] [simjoin]
                   [WHERE expr]
                   [ORDER BY (name [ASC|DESC] | SIMILARITY)] [LIMIT int]
    items       := '*' | item (',' item)*
    item        := column | name '(' ')'
                 | COUNT '(' '*' ')' | COUNT '(' DISTINCT name ')'
                 | AVG '(' name ')' | MIN '(' name ')' | MAX '(' name ')'
    simjoin     := SIMILARITY JOIN (name | '(' select ')') [ON name]
                   WITHIN number [DIM int] [TOP int] [EXCLUDE SELF]
    expr        := or ; or := and (OR and)* ; and := not (AND not)*
    not         := NOT not | primary
    primary     := '(' expr ')'
                 | column ( op literal
                          | [NOT] BETWEEN literal AND literal
                          | [NOT] IN '(' literal (',' literal)* ')'
                          | [NOT] CONTAINS literal )
    column      := name | (left|right) '.' name
    op          := '=' | '==' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    literal     := string | number | '-' number | TRUE | FALSE | NULL

Every failure raises :class:`~repro.errors.ParseError` with the
offending token's line/column and a caret-annotated excerpt.
"""

from __future__ import annotations

from repro.core.sql import ast
from repro.core.sql.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    PUNCT,
    STRING,
    Token,
    tokenize,
)
from repro.errors import ParseError

#: "=" and "==" normalize to "=="; "<>" and "!=" to "!="
_OP_NORMALIZE = {
    "=": "==",
    "==": "==",
    "!=": "!=",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def parse(source: str) -> ast.Statement:
    """Parse one LensQL statement (an optional trailing ``;`` is fine)."""
    return _Parser(source).parse_statement()


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0

    # -- token plumbing --------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.current
        if token.type != EOF:
            self.index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token if token is not None else self.current
        return ParseError(
            message,
            source=self.source,
            line=token.line,
            column=token.column,
            length=token.length,
        )

    def _describe(self, token: Token) -> str:
        if token.type == EOF:
            return "end of input"
        return f"{token.value!r}"

    def _expect(self, type_: str, value: str | None = None) -> Token:
        token = self.current
        if not token.matches(type_, value):
            wanted = value if value is not None else type_
            raise self._error(
                f"expected {wanted}, got {self._describe(token)}"
            )
        return self._advance()

    def _accept(self, type_: str, value: str | None = None) -> Token | None:
        if self.current.matches(type_, value):
            return self._advance()
        return None

    def _pos(self, token: Token) -> ast.Pos:
        return (token.line, token.column)

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.current
        if token.matches(KEYWORD, "SELECT"):
            statement: ast.Statement = self._select()
        elif token.matches(KEYWORD, "EXPLAIN"):
            start = self._advance()
            analyze = self._accept(KEYWORD, "ANALYZE") is not None
            statement = ast.Explain(
                self._select(), analyze=analyze, pos=self._pos(start)
            )
        elif token.matches(KEYWORD, "CREATE"):
            statement = self._create()
        elif token.matches(KEYWORD, "REFRESH"):
            start = self._advance()
            self._expect(KEYWORD, "VIEW")
            name = self._name("view name")
            select = None
            if self._accept(KEYWORD, "AS"):
                select = self._select()
            statement = ast.RefreshView(name, select, pos=self._pos(start))
        elif token.matches(KEYWORD, "DROP"):
            start = self._advance()
            self._expect(KEYWORD, "VIEW")
            statement = ast.DropView(
                self._name("view name"), pos=self._pos(start)
            )
        elif token.matches(KEYWORD, "SHOW"):
            statement = self._show()
        else:
            raise self._error(
                f"expected a statement (SELECT / EXPLAIN / CREATE / "
                f"REFRESH / DROP / SHOW), got {self._describe(token)}"
            )
        self._accept(PUNCT, ";")
        if self.current.type != EOF:
            raise self._error(
                f"unexpected trailing input {self._describe(self.current)}"
            )
        return statement

    def _create(self) -> ast.Statement:
        start = self._expect(KEYWORD, "CREATE")
        replace = False
        if self._accept(KEYWORD, "OR"):
            self._expect(KEYWORD, "REPLACE")
            replace = True
        if self._accept(KEYWORD, "INDEX"):
            if replace:
                raise self._error("CREATE OR REPLACE applies to views only")
            self._expect(KEYWORD, "ON")
            collection = self._name("collection name")
            self._expect(PUNCT, "(")
            attr = self._name("attribute name")
            self._expect(PUNCT, ")")
            kind = "btree"
            params: list[tuple[str, int | float]] = []
            if self._accept(KEYWORD, "USING"):
                # kinds are case-insensitive, like keywords
                kind = self._name("index kind").lower()
                if self._accept(PUNCT, "("):
                    while True:
                        param = self._name("parameter name")
                        self._expect(OP, "=")
                        value = self.current
                        if value.type != NUMBER:
                            raise self._error(
                                f"index parameter {param!r} needs a number, "
                                f"got {self._describe(value)}"
                            )
                        self._advance()
                        assert value.number is not None
                        params.append((param, value.number))
                        if not self._accept(PUNCT, ","):
                            break
                    self._expect(PUNCT, ")")
            return ast.CreateIndex(
                collection, attr, kind, tuple(params), pos=self._pos(start)
            )
        self._expect(KEYWORD, "MATERIALIZED")
        self._expect(KEYWORD, "VIEW")
        name = self._name("view name")
        self._expect(KEYWORD, "AS")
        return ast.CreateView(
            name, self._select(), replace, pos=self._pos(start)
        )

    def _show(self) -> ast.Show:
        start = self._expect(KEYWORD, "SHOW")
        if self._accept(KEYWORD, "COLLECTIONS"):
            return ast.Show("collections", pos=self._pos(start))
        if self._accept(KEYWORD, "VIEWS"):
            return ast.Show("views", pos=self._pos(start))
        if self._accept(KEYWORD, "INDEXES"):
            return ast.Show("indexes", pos=self._pos(start))
        if self._accept(KEYWORD, "METRICS"):
            return ast.Show("metrics", pos=self._pos(start))
        if self._accept(KEYWORD, "SLOW"):
            self._expect(KEYWORD, "QUERIES")
            return ast.Show("slow_queries", pos=self._pos(start))
        if self._accept(KEYWORD, "STATS"):
            self._expect(KEYWORD, "FOR")
            return ast.Show(
                "stats", self._name("collection name"), pos=self._pos(start)
            )
        raise self._error(
            f"expected COLLECTIONS, VIEWS, INDEXES, METRICS, SLOW QUERIES, "
            f"or STATS after SHOW, got {self._describe(self.current)}"
        )

    # -- select ----------------------------------------------------------

    def _select(self) -> ast.Select:
        start = self._expect(KEYWORD, "SELECT")
        items = self._select_items()
        self._expect(KEYWORD, "FROM")
        source_token = self.current
        source = ast.TableRef(
            self._name("collection name"), pos=self._pos(source_token)
        )
        metadata_only = False
        if self._accept(KEYWORD, "METADATA"):
            self._expect(KEYWORD, "ONLY")
            metadata_only = True
        join = None
        if self.current.matches(KEYWORD, "SIMILARITY"):
            join = self._similarity_join()
        where = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._expr()
        order_by = None
        if self.current.matches(KEYWORD, "ORDER"):
            order_token = self._advance()
            self._expect(KEYWORD, "BY")
            similarity = self._accept(KEYWORD, "SIMILARITY") is not None
            attr = "similarity" if similarity else self._name("attribute name")
            desc = False
            if self._accept(KEYWORD, "DESC"):
                desc = True
            else:
                self._accept(KEYWORD, "ASC")
            order_by = ast.OrderSpec(
                attr, desc, similarity, pos=self._pos(order_token)
            )
        limit = None
        if self._accept(KEYWORD, "LIMIT"):
            limit = self._int("LIMIT")
        return ast.Select(
            items,
            source,
            join,
            where,
            order_by,
            limit,
            metadata_only,
            pos=self._pos(start),
        )

    def _select_items(self) -> tuple[ast.SelectItem, ...]:
        items: list[ast.SelectItem] = [self._select_item()]
        while self._accept(PUNCT, ","):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> ast.SelectItem:
        token = self.current
        if token.matches(PUNCT, "*"):
            self._advance()
            return ast.Star(pos=self._pos(token))
        if token.matches(KEYWORD, "COUNT"):
            self._advance()
            self._expect(PUNCT, "(")
            if self._accept(PUNCT, "*"):
                self._expect(PUNCT, ")")
                return ast.AggregateCall("count", pos=self._pos(token))
            self._expect(KEYWORD, "DISTINCT")
            attr = self._name("attribute name")
            self._expect(PUNCT, ")")
            return ast.AggregateCall(
                "distinct_count", attr, pos=self._pos(token)
            )
        for keyword, kind in (("AVG", "avg"), ("MIN", "min"), ("MAX", "max")):
            if token.matches(KEYWORD, keyword):
                self._advance()
                self._expect(PUNCT, "(")
                attr = self._name("attribute name")
                self._expect(PUNCT, ")")
                return ast.AggregateCall(kind, attr, pos=self._pos(token))
        if token.type == IDENT:
            name = self._advance().value
            if self._accept(PUNCT, "("):
                self._expect(PUNCT, ")")
                return ast.UdfCall(name, pos=self._pos(token))
            if self._accept(PUNCT, "."):
                attr = self._name("attribute name")
                return ast.ColumnRef(attr, name, pos=self._pos(token))
            return ast.ColumnRef(name, pos=self._pos(token))
        raise self._error(
            f"expected a select item (attribute, UDF call, COUNT, AVG, "
            f"MIN, or MAX), got {self._describe(token)}"
        )

    def _similarity_join(self) -> ast.SimilarityJoinClause:
        start = self._expect(KEYWORD, "SIMILARITY")
        self._expect(KEYWORD, "JOIN")
        right: ast.TableRef | ast.Select
        if self._accept(PUNCT, "("):
            right = self._select()
            self._expect(PUNCT, ")")
        else:
            right_token = self.current
            right = ast.TableRef(
                self._name("collection name"), pos=self._pos(right_token)
            )
        on = None
        if self._accept(KEYWORD, "ON"):
            on = self._name("feature UDF name")
        self._expect(KEYWORD, "WITHIN")
        threshold = float(self._number("WITHIN"))
        # the options compose in any order, each at most once
        dim: int | None = None
        top: int | None = None
        exclude_self = False
        while True:
            if dim is None and self._accept(KEYWORD, "DIM"):
                dim = self._int("DIM")
            elif top is None and self._accept(KEYWORD, "TOP"):
                top = self._int("TOP")
            elif not exclude_self and self._accept(KEYWORD, "EXCLUDE"):
                self._expect(KEYWORD, "SELF")
                exclude_self = True
            else:
                break
        return ast.SimilarityJoinClause(
            right, threshold, on, dim, top, exclude_self, pos=self._pos(start)
        )

    # -- expressions -----------------------------------------------------

    def _expr(self) -> ast.SqlExpr:
        return self._or()

    def _or(self) -> ast.SqlExpr:
        first = self._and()
        children = [first]
        while self._accept(KEYWORD, "OR"):
            children.append(self._and())
        if len(children) == 1:
            return first
        return ast.Or(tuple(children), pos=first.pos)

    def _and(self) -> ast.SqlExpr:
        first = self._not()
        children = [first]
        while self._accept(KEYWORD, "AND"):
            children.append(self._not())
        if len(children) == 1:
            return first
        return ast.And(tuple(children), pos=first.pos)

    def _not(self) -> ast.SqlExpr:
        token = self._accept(KEYWORD, "NOT")
        if token is not None:
            return ast.Not(self._not(), pos=self._pos(token))
        return self._primary()

    def _primary(self) -> ast.SqlExpr:
        if self._accept(PUNCT, "("):
            inner = self._expr()
            self._expect(PUNCT, ")")
            return inner
        column = self._column()
        negated = self._accept(KEYWORD, "NOT") is not None
        token = self.current
        if not negated and token.type == OP:
            op = _OP_NORMALIZE[self._advance().value]
            value = self._literal()
            return ast.Comparison(column, op, value, pos=column.pos)
        if self._accept(KEYWORD, "BETWEEN"):
            lo = self._literal()
            self._expect(KEYWORD, "AND")
            hi = self._literal()
            expr: ast.SqlExpr = ast.Between(column, lo, hi, pos=column.pos)
        elif self._accept(KEYWORD, "IN"):
            self._expect(PUNCT, "(")
            items = [self._literal()]
            while self._accept(PUNCT, ","):
                items.append(self._literal())
            self._expect(PUNCT, ")")
            expr = ast.InList(column, tuple(items), pos=column.pos)
        elif self._accept(KEYWORD, "CONTAINS"):
            expr = ast.Contains(column, self._literal(), pos=column.pos)
        else:
            raise self._error(
                f"expected a comparison operator, BETWEEN, IN, or CONTAINS, "
                f"got {self._describe(token)}"
            )
        if negated:
            return ast.Not(expr, pos=column.pos)
        return expr

    def _column(self) -> ast.ColumnRef:
        token = self.current
        if token.type != IDENT:
            raise self._error(
                f"expected an attribute name, got {self._describe(token)}"
            )
        name = self._advance().value
        if self._accept(PUNCT, "."):
            attr = self._name("attribute name")
            return ast.ColumnRef(attr, name, pos=self._pos(token))
        return ast.ColumnRef(name, pos=self._pos(token))

    # -- terminals -------------------------------------------------------

    def _name(self, what: str) -> str:
        token = self.current
        if token.type != IDENT:
            raise self._error(
                f"expected {'an' if what[0] in 'aeiou' else 'a'} {what}, "
                f"got {self._describe(token)}"
            )
        return self._advance().value

    def _literal(self) -> ast.Literal:
        token = self.current
        if token.type == STRING:
            self._advance()
            return ast.Literal(token.value, pos=self._pos(token))
        if token.type == NUMBER:
            self._advance()
            return ast.Literal(token.number, pos=self._pos(token))
        if token.matches(PUNCT, "-"):
            self._advance()
            number = self.current
            if number.type != NUMBER:
                raise self._error(
                    f"expected a number after '-', got "
                    f"{self._describe(number)}"
                )
            self._advance()
            assert number.number is not None
            return ast.Literal(-number.number, pos=self._pos(token))
        if token.matches(KEYWORD, "TRUE"):
            self._advance()
            return ast.Literal(True, pos=self._pos(token))
        if token.matches(KEYWORD, "FALSE"):
            self._advance()
            return ast.Literal(False, pos=self._pos(token))
        if token.matches(KEYWORD, "NULL"):
            self._advance()
            return ast.Literal(None, pos=self._pos(token))
        raise self._error(f"expected a literal, got {self._describe(token)}")

    def _number(self, clause: str) -> float:
        token = self.current
        if token.type != NUMBER:
            raise self._error(
                f"{clause} needs a number, got {self._describe(token)}"
            )
        self._advance()
        assert token.number is not None
        return float(token.number)

    def _int(self, clause: str) -> int:
        token = self.current
        if token.type != NUMBER or not isinstance(token.number, int):
            raise self._error(
                f"{clause} needs a non-negative integer, got "
                f"{self._describe(token)}"
            )
        if token.number < 0:
            raise self._error(f"{clause} must be non-negative")
        self._advance()
        return int(token.number)
