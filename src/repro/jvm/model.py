"""Class and method model for the VM substrate.

The substrate is a deliberately small Java-like VM: enough of the JVM's
object and invocation model that the four instructions the CG collector
instruments (``new``/``putfield``/``putstatic``/``areturn``, thesis section
3.1.3) occur with faithful semantics, plus arrays, virtual dispatch, statics,
string interning, native methods, and threads.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .errors import LinkageError

# Bytecode instructions are plain tuples: (opcode, arg1, arg2).  Unused
# argument slots hold None.  Keeping them as tuples (rather than objects)
# makes the pure-Python dispatch loop measurably faster.
Instruction = Tuple[int, object, object]


class JClass:
    """A loaded class: field layout, methods, statics, and a super chain.

    Field order matters only for documentation; fields are stored by name in
    each object.  ``statics`` is the class's static-variable table — the CG
    collector treats every reference stored there as pinned to the synthetic
    frame 0 (live for the program's duration).
    """

    __slots__ = (
        "name", "fields", "methods", "statics", "superclass", "is_array",
        "_field_template",
    )

    def __init__(
        self,
        name: str,
        fields: Optional[List[str]] = None,
        superclass: Optional["JClass"] = None,
        is_array: bool = False,
    ) -> None:
        self.name = name
        self.fields: List[str] = list(fields or [])
        if superclass is not None:
            # Inherited fields precede declared ones, mirroring JVM layout.
            self.fields = list(superclass.fields) + [
                f for f in self.fields if f not in superclass.fields
            ]
        self.methods: Dict[str, JMethod] = {}
        self.statics: Dict[str, object] = {}
        self.superclass = superclass
        self.is_array = is_array
        self._field_template: Optional[Dict[str, object]] = None

    def __repr__(self) -> str:
        return f"<JClass {self.name}>"

    def has_field(self, name: str) -> bool:
        return name in self.fields

    def add_method(self, method: "JMethod") -> None:
        self.methods[method.name] = method
        method.owner = self

    def resolve_method(self, name: str) -> "JMethod":
        """Look ``name`` up along the super chain (virtual dispatch)."""
        cls: Optional[JClass] = self
        while cls is not None:
            method = cls.methods.get(name)
            if method is not None:
                return method
            cls = cls.superclass
        raise LinkageError(f"no method {name!r} on class {self.name} or its supers")

    def instance_size_words(self) -> int:
        """Payload size of an instance, in words (one word per field)."""
        return max(1, len(self.fields))

    def field_template(self) -> Dict[str, object]:
        """All-None field dict to copy per allocation.

        The length guard rebuilds the template when fields are appended
        after class creation (the assembler's ``field`` directive does
        this), so the cache is safe for append-only mutation.
        """
        template = self._field_template
        if template is None or len(template) != len(self.fields):
            template = self._field_template = dict.fromkeys(self.fields)
        return template


class JMethod:
    """A method body: bytecode, frame shape, and (optionally) a native impl.

    ``nargs`` arguments are popped from the caller's operand stack into
    locals ``0..nargs-1`` at invocation.  Native methods carry a Python
    callable instead of bytecode; the interpreter routes them through the
    native registry so returned references can be pinned (thesis section 3.3).
    """

    __slots__ = (
        "name", "nargs", "nlocals", "code", "native", "owner", "labels",
        "block_starts",
    )

    def __init__(
        self,
        name: str,
        nargs: int,
        nlocals: Optional[int] = None,
        code: Optional[List[Instruction]] = None,
        native: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.nargs = nargs
        self.nlocals = nlocals if nlocals is not None else nargs
        if self.nlocals < nargs:
            raise LinkageError(
                f"method {name}: nlocals ({self.nlocals}) < nargs ({nargs})"
            )
        self.code: List[Instruction] = code or []
        self.native = native
        self.owner: Optional[JClass] = None
        self.labels: Dict[str, int] = {}
        #: Basic-block leader pcs from the assembler's control-flow scan
        #: (None = not yet scanned; the compiled tier's codegen scans lazily
        #: for hand-built methods that never went through the assembler).
        self.block_starts: Optional[Tuple[int, ...]] = None

    @property
    def qualified_name(self) -> str:
        owner = self.owner.name if self.owner else "?"
        return f"{owner}.{self.name}"

    def __repr__(self) -> str:
        kind = "native " if self.native else ""
        return f"<JMethod {kind}{self.qualified_name}/{self.nargs}>"


class Program:
    """A set of loaded classes — the unit the interpreter executes.

    The well-known classes ``java/lang/Object``, ``java/lang/String`` and the
    array pseudo-class are created automatically so that every program can
    allocate strings and arrays without declaring them.
    """

    OBJECT = "java/lang/Object"
    STRING = "java/lang/String"
    ARRAY = "[Ljava/lang/Object;"

    def __init__(self) -> None:
        self.classes: Dict[str, JClass] = {}
        object_cls = JClass(self.OBJECT)
        string_cls = JClass(self.STRING, fields=["value"], superclass=object_cls)
        array_cls = JClass(self.ARRAY, superclass=object_cls, is_array=True)
        for cls in (object_cls, string_cls, array_cls):
            self.classes[cls.name] = cls

    def define_class(
        self,
        name: str,
        fields: Optional[List[str]] = None,
        superclass: Optional[str] = None,
    ) -> JClass:
        if name in self.classes:
            raise LinkageError(f"duplicate class {name!r}")
        sup = self.lookup(superclass) if superclass else self.classes[self.OBJECT]
        cls = JClass(name, fields=fields, superclass=sup)
        self.classes[name] = cls
        return cls

    def lookup(self, name: str) -> JClass:
        try:
            return self.classes[name]
        except KeyError:
            raise LinkageError(f"unknown class {name!r}") from None

    def resolve(self, qualified: str) -> JMethod:
        """Resolve ``Class.method`` to a method (statically)."""
        if "." not in qualified:
            raise LinkageError(f"malformed method reference {qualified!r}")
        cls_name, method_name = qualified.rsplit(".", 1)
        return self.lookup(cls_name).resolve_method(method_name)
